package sql

import (
	"encoding/binary"
	"math"
	"math/big"

	"repro/internal/codec"
	"repro/internal/relation"
)

// exactSum is the running total of SUM and AVG. INT observations add
// into i with int64 wrap-around; every other observation counts as a
// float. Finite floats are kept exactly, as Shewchuk's non-overlapping
// partials (increasing magnitude, no zeros; the algorithm behind
// Python's math.fsum), so the total does not depend on the order or
// grouping of observations and merges, and it is rounded once, when
// read. Non-finite floats sum on the side in inf.
type exactSum struct {
	i        int64
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
)

func (s *exactSum) add(v relation.Value) {
	if v.Kind == relation.KindInt {
		s.i += v.I
		s.flags |= sawNotNeg0
		return
	}
	x := v.AsFloat()
	s.flags |= sawFloat
	if x != 0 || !math.Signbit(x) {
		s.flags |= sawNotNeg0
	}
	s.addFloat(x)
}

func (s *exactSum) addFloat(x float64) {
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
	for _, x := range o.partials {
		s.addFloat(x)
	}
	s.addFloat(o.inf)
	if o.wide != nil {
		s.addWide(o.wide)
	}
}

// float returns the total, ints included, rounded once to the nearest
// float64 (ties to even).
func (s *exactSum) float() float64 {
	switch {
	case s.inf != 0:
		return s.inf
	case s.flags&sawNotNeg0 == 0:
		return math.Copysign(0, -1)
	case s.wide != nil:
		t := new(big.Float).SetPrec(widePrec).SetInt64(s.i)
		f, _ := t.Add(t, s.wide).Float64()
		return f
	}
	var buf [8]float64
	p := append(buf[:0], s.partials...)
	p = grow(grow(p, float64(s.i>>32<<32)), float64(s.i&(1<<32-1))) // two exact halves
	return round(p)
}

// appendBinary writes the total canonically — the bytes depend only on
// the observations, never on the merge tree that combined them: flags,
// the INT total, then the float total as q·2^1023 plus the greedy
// expansion of the remainder (its rounding, then the rounding of what
// is left, until nothing is), led by the non-finite side sum if any.
func (s *exactSum) appendBinary(b []byte) []byte {
	var buf [8]float64
	terms, q := buf[:0], int64(0)
	if s.inf != 0 {
		terms = append(terms, s.inf)
	}
	if s.wide != nil {
		rest := new(big.Float).Copy(s.wide)
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
	for p := append(make([]float64, 0, 8), s.partials...); len(p) > 0; {
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
