package sql

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"

	"repro/internal/codec"
	"repro/internal/relation"
)

// exactSum is the running total of SUM and AVG. INT observations add
// into i with int64 wrap-around; every other observation counts as a
// float. Finite floats are kept exactly, so the total does not depend
// on the order or grouping of observations and merges, and it is
// rounded once, when read. They live in one of three places:
//
//   - the fixed lane, a 128-bit two's-complement integer (hi, lo) in
//     units of 2^-64, takes every float that is a whole multiple of
//     2^-64 below 2^63 in magnitude (each one from 2^-12 up, so any
//     money-like value) and adds it in constant time, with carry
//     (Neal's small superaccumulator, cut to one word pair);
//   - the partials take the rest: Shewchuk's non-overlapping expansion
//     (increasing magnitude, no zeros; the algorithm behind Python's
//     math.fsum), and the lane's own value when an add would overflow
//     it;
//   - wide replaces the partials once a magnitude reaches wideAt.
//
// Non-finite floats sum on the side in inf. Reading the total, merging
// and encoding fold the lane in exactly, so where a float was kept
// never shows in a result bit or an encoded byte.
type exactSum struct {
	i int64
	// The fixed lane: the signed 128-bit integer hi·2^64 + lo, times
	// 2^-64.
	hi       int64
	lo       uint64
	partials []float64
	// wide replaces partials once a magnitude reaches wideAt, past which
	// a two-sum could overflow; it holds the finite float total exactly.
	wide  *big.Float
	inf   float64 // 0, ±Inf or the canonical NaN
	flags uint8
}

const (
	sawFloat   = 1 << iota // a float was observed: the total is FLOAT
	sawNotNeg0             // an observation other than -0.0 was seen

	wideAt   = 0x1p1021 // partials below this sum without overflow
	widePrec = 2200     // bits spanning 2^-1074 up to 2^63 float64 maxima
	maxTerms = 64       // an encoding has at most 41 terms

	laneFrac = 64 // the lane's bits below the binary point
	laneTop  = 63 // lane floats are below 2^laneTop in magnitude
)

func (s *exactSum) add(v *relation.Value) {
	if v.Kind == relation.KindInt {
		s.i += v.I
		s.flags |= sawNotNeg0
		return
	}
	x := v.F
	if v.Kind != relation.KindFloat {
		x = v.AsFloat()
	}
	s.flags |= sawFloat
	if x != 0 || !math.Signbit(x) {
		s.flags |= sawNotNeg0
	}
	s.addFloat(x)
}

func (s *exactSum) addFloat(x float64) {
	if hi, lo, ok := toLane(x); ok {
		s.addLane(hi, lo)
		return
	}
	s.addSlow(x)
}

// toLane returns x in lane units, as a 128-bit two's-complement
// integer, if x is a normal float with no set bit below 2^-laneFrac and
// a magnitude below 2^laneTop.
func toLane(x float64) (hi int64, lo uint64, ok bool) {
	b := math.Float64bits(x)
	exp := int(b >> 52 & 0x7ff)
	// x = m·2^(exp-1075); its lowest set bit sits at lane bit shift+tz.
	m := b&(1<<52-1) | 1<<52
	shift := exp - 1075 + laneFrac
	if exp == 0 || exp-1023 >= laneTop || shift+bits.TrailingZeros64(m) < 0 {
		return 0, 0, false // zero, subnormal, too large, non-finite or too fine
	}
	var uh uint64
	switch {
	case shift < 0:
		lo = m >> -shift
	case shift < 64:
		lo, uh = m<<shift, m>>(64-shift)
	default:
		uh = m << (shift - 64)
	}
	if b>>63 != 0 {
		var borrow uint64
		lo, borrow = bits.Sub64(0, lo, 0)
		uh, _ = bits.Sub64(0, uh, borrow)
	}
	return int64(uh), lo, true
}

// addLane adds the 128-bit lane value (hi, lo) into the lane. Should
// the lane overflow, its old value moves to the partials first.
func (s *exactSum) addLane(hi int64, lo uint64) {
	sumLo, carry := bits.Add64(s.lo, lo, 0)
	sumHi, _ := bits.Add64(uint64(s.hi), uint64(hi), carry)
	if (s.hi < 0) == (hi < 0) && (int64(sumHi) < 0) != (hi < 0) {
		s.spillLane()
		sumHi, sumLo = uint64(hi), lo
	}
	s.hi, s.lo = int64(sumHi), sumLo
}

// laneTerms returns the lane's value as four floats whose exact sum it
// is: its 32-bit pieces, each exactly representable.
func (s *exactSum) laneTerms() [4]float64 {
	return [4]float64{
		float64(s.hi>>32) * 0x1p32,
		float64(uint32(s.hi)),
		float64(s.lo>>32) * 0x1p-32,
		float64(uint32(s.lo)) * 0x1p-64,
	}
}

// spillLane moves the lane's value to the partials (or wide) and
// empties it.
func (s *exactSum) spillLane() {
	for _, t := range s.laneTerms() {
		s.addSlow(t)
	}
	s.hi, s.lo = 0, 0
}

// addSlow adds a float the lane does not take.
func (s *exactSum) addSlow(x float64) {
	switch n := len(s.partials); {
	case x == 0: // the sign of a zero total lives in flags
	case s.wide == nil && math.Abs(x) < wideAt && (n == 0 || math.Abs(s.partials[n-1]) < wideAt):
		s.partials = grow(s.partials, x)
	case math.IsInf(x, 0) || math.IsNaN(x):
		if s.inf += x; math.IsNaN(s.inf) {
			s.inf = math.NaN()
		}
	default:
		s.addWide(big.NewFloat(x))
	}
}

func (s *exactSum) addWide(x *big.Float) {
	if s.wide == nil {
		s.wide = new(big.Float).SetPrec(widePrec)
		for _, p := range s.partials {
			s.wide.Add(s.wide, big.NewFloat(p))
		}
		s.partials = nil
	}
	s.wide.Add(s.wide, x)
}

func (s *exactSum) merge(o *exactSum) {
	s.i += o.i
	s.flags |= o.flags
	s.addLane(o.hi, o.lo)
	for _, x := range o.partials {
		s.addFloat(x)
	}
	s.addSlow(o.inf)
	if o.wide != nil {
		s.addWide(o.wide)
	}
}

// finite returns the finite float total other than wide's, as
// non-overlapping partials in buf: the partials with the lane's terms
// and the INT total's two exact halves grown in when ints is set.
func (s *exactSum) finite(buf []float64, ints bool) []float64 {
	p := append(buf[:0], s.partials...)
	for _, t := range s.laneTerms() {
		if t != 0 {
			p = grow(p, t)
		}
	}
	if ints {
		p = grow(grow(p, float64(s.i>>32<<32)), float64(s.i&(1<<32-1)))
	}
	return p
}

// float returns the total, ints included, rounded once to the nearest
// float64 (ties to even).
func (s *exactSum) float() float64 {
	var buf [16]float64
	switch {
	case s.inf != 0:
		return s.inf
	case s.flags&sawNotNeg0 == 0:
		return math.Copysign(0, -1)
	case s.wide != nil:
		t := new(big.Float).SetPrec(widePrec).SetInt64(s.i)
		for _, p := range s.finite(buf[:0], false) {
			t.Add(t, big.NewFloat(p))
		}
		f, _ := t.Add(t, s.wide).Float64()
		return f
	}
	return round(s.finite(buf[:0], true))
}

// appendBinary writes the total canonically — the bytes depend only on
// the observations, never on the merge tree that combined them or on
// which floats the lane held: flags, the INT total, then the float
// total as q·2^1023 plus the greedy expansion of the remainder (its
// rounding, then the rounding of what is left, until nothing is), led
// by the non-finite side sum if any.
func (s *exactSum) appendBinary(b []byte) []byte {
	var buf [8]float64
	terms, q := buf[:0], int64(0)
	if s.inf != 0 {
		terms = append(terms, s.inf)
	}
	p := s.finite(make([]float64, 0, 16), false)
	if s.wide != nil {
		rest := new(big.Float).Copy(s.wide)
		for _, x := range p {
			rest.Add(rest, big.NewFloat(x))
		}
		p = p[:0]
		q, _ = new(big.Float).SetMantExp(rest, -1023).Int64()
		rest.Sub(rest, new(big.Float).SetMantExp(new(big.Float).SetInt64(q), 1023))
		for rest.Sign() != 0 {
			r, _ := rest.Float64()
			terms = append(terms, r)
			if math.IsInf(r, 0) { // past 2^1086 q saturates; the total is ±Inf anyway
				break
			}
			rest.Sub(rest, big.NewFloat(r))
		}
	}
	for len(p) > 0 {
		r := round(p)
		terms = append(terms, r)
		p = grow(p, -r)
	}
	b = binary.AppendVarint(binary.AppendVarint(append(b, s.flags), s.i), q)
	b = binary.AppendUvarint(b, uint64(len(terms)))
	for _, t := range terms {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t))
	}
	return b
}

// decode reads one appendBinary encoding. Terms are re-added one by
// one, so any term list decodes to valid state.
func (s *exactSum) decode(d *codec.Decoder) (err error) {
	if s.flags, err = d.Byte(); err != nil {
		return err
	}
	if s.i, err = d.Varint(); err != nil {
		return err
	}
	q, err := d.Varint()
	if err != nil {
		return err
	}
	if q != 0 {
		s.addWide(new(big.Float).SetMantExp(new(big.Float).SetInt64(q), 1023))
	}
	n, err := d.Length()
	if err != nil {
		return err
	}
	if n > maxTerms {
		return codec.ErrCorrupt
	}
	for ; n > 0; n-- {
		raw, err := d.Take(8)
		if err != nil {
			return err
		}
		s.addFloat(math.Float64frombits(binary.LittleEndian.Uint64(raw)))
	}
	return nil
}

// grow adds x exactly into the non-overlapping partials p (Shewchuk's
// GROW-EXPANSION with zero elimination). Callers keep every magnitude
// below wideAt, so no two-sum overflows.
func grow(p []float64, x float64) []float64 {
	n := 0
	for _, y := range p {
		if math.Abs(x) < math.Abs(y) {
			x, y = y, x
		}
		hi := x + y
		if lo := y - (hi - x); lo != 0 {
			p[n] = lo
			n++
		}
		x = hi
	}
	if x != 0 {
		return append(p[:n], x)
	}
	return p[:n]
}

// round returns the float64 nearest the exact sum of the partials p,
// ties to even: the final step of math.fsum.
func round(p []float64) float64 {
	n := len(p)
	if n == 0 {
		return 0
	}
	n--
	hi, lo := p[n], 0.0
	for n > 0 {
		x := hi
		n--
		hi = x + p[n]
		if lo = p[n] - (hi - x); lo != 0 {
			break
		}
	}
	// If lo is exactly half an ulp, hi+lo was a tie broken to even; a next
	// partial on lo's side puts the exact sum past the tie, toward lo.
	if n > 0 && (lo < 0) == (p[n-1] < 0) {
		y := lo * 2
		if x := hi + y; x-hi == y {
			hi = x
		}
	}
	return hi
}
