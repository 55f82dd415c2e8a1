package sql

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/codec"
	"repro/internal/relation"
)

// randomObservations draws one multiset of SUM/AVG inputs mixing a few
// regimes: money-like decimals, normals, Ldexp across ±1000 exponents,
// signed zeros, infinities and NaN, ±1e308-scale values (which overflow
// any float64 running sum), INTs near ±2^63 (which wrap), and the fixed
// lane's edges (sum.go): a lowest set bit at 2^-64 (inside the lane) or
// 2^-65 (outside), a top bit at 2^62 (inside) or 2^63 (outside), runs of
// one sign just under 2^63 whose total overflows the lane, and
// subnormals.
func randomObservations(rng *rand.Rand) []relation.Value {
	mant := func() float64 { return float64(rng.Int63n(1<<52) | 1<<52 | 1) } // 53 bits, the last set
	sign := float64(1 - 2*rng.Intn(2))                                       // the overflowing runs' sign
	regimes := []func() relation.Value{
		func() relation.Value { return relation.Float(float64(rng.Int63n(2e9)-1e9) / 100) },
		func() relation.Value {
			return relation.Float(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(30)-15)))
		},
		func() relation.Value { return relation.Float(math.Ldexp(rng.Float64()-0.5, rng.Intn(2001)-1000)) },
		func() relation.Value {
			return relation.Float([]float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(5)])
		},
		func() relation.Value {
			return relation.Float([]float64{1e308, -1e308, math.MaxFloat64, -math.MaxFloat64, 0x1p1021}[rng.Intn(5)] * (1 - rng.Float64()/4))
		},
		func() relation.Value {
			if rng.Intn(2) == 0 {
				return relation.Int(math.MaxInt64 - rng.Int63n(1<<20))
			}
			return relation.Int(math.MinInt64 + rng.Int63n(1<<20))
		},
		func() relation.Value {
			x := math.Ldexp(mant(), []int{-64, -65, 62 - 52, 63 - 52}[rng.Intn(4)])
			return relation.Float(x * float64(1-2*rng.Intn(2)))
		},
		func() relation.Value { return relation.Float(sign * math.Ldexp(mant(), 62-52)) },
		func() relation.Value {
			return relation.Float(math.Float64frombits(rng.Uint64() & (1<<63 | 1<<52 - 1)))
		},
	}
	var mix []func() relation.Value
	for k := 1 + rng.Intn(3); k > 0; k-- {
		mix = append(mix, regimes[rng.Intn(len(regimes))])
	}
	obs := make([]relation.Value, 1+rng.Intn(12))
	for i := range obs {
		obs[i] = mix[rng.Intn(len(mix))]()
	}
	return obs
}

// referenceSum is the contract of SUM and AVG spelled out with
// math/big: INTs wrap as int64, the floats (and the INT total, if any)
// add exactly, the sum rounds once, and a zero sum is -0 only when it
// is IEEE's -0 + -0 + ….
func referenceSum(obs []relation.Value) (sum, avg relation.Value) {
	var total int64
	var ints, floats, nan, posInf, negInf bool
	var finite *big.Float
	for _, v := range obs {
		if v.Kind == relation.KindInt {
			total += v.I
			ints = true
			continue
		}
		floats = true
		switch x := v.F; {
		case math.IsNaN(x):
			nan = true
		case math.IsInf(x, 1):
			posInf = true
		case math.IsInf(x, -1):
			negInf = true
		case finite == nil:
			finite = new(big.Float).SetPrec(4096).SetFloat64(x)
		default:
			finite.Add(finite, big.NewFloat(x))
		}
	}
	exact := new(big.Float).SetPrec(4096)
	if ints {
		exact.SetInt64(total)
		if finite != nil {
			exact.Add(exact, finite)
		}
	} else if finite != nil {
		exact.Set(finite)
	}
	f, _ := exact.Float64()
	switch {
	case nan || posInf && negInf:
		f = math.NaN()
	case posInf:
		f = math.Inf(1)
	case negInf:
		f = math.Inf(-1)
	}
	avg = relation.Float(f / float64(len(obs)))
	if !floats {
		return relation.Int(total), avg
	}
	return relation.Float(f), avg
}

// mergeTree spreads obs over random leaf accumulators and merges them
// pairwise in a random tree, sending each operand through
// AppendBinary/DecodeAggregator at random.
func mergeTree(t testing.TB, rng *rand.Rand, fn *FuncCall, obs []relation.Value) *Aggregator {
	leaves := make([]*Aggregator, 1+rng.Intn(len(obs)+1))
	for i := range leaves {
		leaves[i] = NewAggregator(fn)
	}
	for _, i := range rng.Perm(len(obs)) {
		leaves[rng.Intn(len(leaves))].Observe(obs[i])
	}
	for len(leaves) > 1 {
		i, j := rng.Intn(len(leaves)), rng.Intn(len(leaves)-1)
		if j >= i {
			j++
		}
		a, b := leaves[i], leaves[j]
		if rng.Intn(2) == 0 {
			a = wireHop(t, a)
		}
		if rng.Intn(2) == 0 {
			b = wireHop(t, b)
		}
		a.Merge(b)
		leaves[i] = a
		leaves = append(leaves[:j], leaves[j+1:]...)
	}
	return leaves[0]
}

func wireHop(t testing.TB, a *Aggregator) *Aggregator {
	b, err := a.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	d := codec.NewDecoder(b)
	out, err := DecodeAggregator(d)
	if err != nil {
		t.Fatalf("decode %x: %v", b, err)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("decode %x: trailing bytes", b)
	}
	return &out
}

func sameBits(a, b relation.Value) bool {
	return a.Kind == b.Kind && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// Any merge tree over the same observations, with any wire hops, gives
// the correctly rounded sum and the same encoded bytes.
func TestSumMergeTreesAreExact(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for n := 0; n < 1500; n++ {
		obs := randomObservations(rng)
		wantSum, wantAvg := referenceSum(obs)
		for _, fn := range []*FuncCall{{Name: "SUM"}, {Name: "AVG"}} {
			want := wantSum
			if fn.Name == "AVG" {
				want = wantAvg
			}
			var first []byte
			for tree := 0; tree < 4; tree++ {
				a := mergeTree(t, rng, fn, obs)
				if got := a.Result(); !sameBits(got, want) {
					t.Fatalf("%s%v tree %d = %v (%x), want %v (%x)", fn.Name, obs, tree, got, math.Float64bits(got.F), want, math.Float64bits(want.F))
				}
				b, err := a.AppendBinary(nil)
				if err != nil {
					t.Fatal(err)
				}
				if tree == 0 {
					first = b
				} else if !bytes.Equal(b, first) {
					t.Fatalf("%s%v: tree %d encodes %x, tree 0 %x", fn.Name, obs, tree, b, first)
				}
			}
		}
	}
}

// SUM/AVG(DISTINCT) fold the distinct set in map order; the exact sum
// makes that order irrelevant.
func TestSumDistinctFloatIsDeterministic(t *testing.T) {
	vals := []float64{0.1, 0.2, 0.3, 1e16, -1e16, 0.7, 3.3}
	obs := make([]relation.Value, len(vals))
	for i, x := range vals {
		obs[i] = relation.Float(x)
	}
	wantSum, wantAvg := referenceSum(obs)
	if wantSum != relation.Float(4.6) {
		t.Fatalf("reference sum = %v, want 4.6", wantSum)
	}
	for run := 0; run < 200; run++ {
		for _, c := range []struct {
			name string
			want relation.Value
		}{{"SUM", wantSum}, {"AVG", wantAvg}} {
			a := NewAggregator(&FuncCall{Name: c.name, Distinct: true})
			for _, v := range obs {
				a.Observe(v)
			}
			if got := a.Result(); !sameBits(got, c.want) {
				t.Fatalf("run %d: %s(DISTINCT) = %v, want %v", run, c.name, got, c.want)
			}
		}
	}
}

// FuzzDecodeAggregator: aggregator partials arrive off the cluster wire.
// On any input the decoder never panics and allocates at most a
// constant factor of the bytes it was given (the term count is capped
// and the wide form is an int64 multiple of 2^1023), and every accepted
// accumulator re-encodes to a canonical form that decodes and
// re-encodes to itself.
func FuzzDecodeAggregator(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 40; n++ {
		obs := randomObservations(rng)
		for _, fn := range []*FuncCall{{Name: "SUM"}, {Name: "AVG"}, {Name: "MIN"}, {Name: "COUNT", Distinct: true}} {
			b, err := mergeTree(f, rng, fn, obs).AppendBinary(nil)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
		}
	}
	// A total past 2^1086, where q no longer fits an int64.
	huge := binary.AppendVarint(append(codec.AppendString(nil, "SUM"), 0), 2)
	huge = binary.AppendUvarint(binary.AppendVarint(binary.AppendVarint(append(huge, sawFloat|sawNotNeg0), 0), math.MaxInt64), 2)
	for k := 0; k < 2; k++ {
		huge = binary.LittleEndian.AppendUint64(huge, math.Float64bits(math.MaxFloat64))
	}
	f.Add(append(huge, byte(relation.KindNull), byte(relation.KindNull)))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		a, err := DecodeAggregator(codec.NewDecoder(data))
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d > 64*uint64(len(data))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), d)
		}
		if err != nil {
			return
		}
		a.Result()
		canon, err := a.AppendBinary(nil)
		if err != nil {
			t.Fatalf("decoded accumulator does not re-encode: %v", err)
		}
		again := wireHop(t, &a)
		got, err := again.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, canon) {
			t.Fatalf("re-encoding is not a fixpoint:\n got %x\nwant %x", got, canon)
		}
	})
}

// FuzzExactSum holds SUM and AVG over raw float64 bit patterns, eight
// bytes an observation, to referenceSum: on one accumulator, and over a
// random merge tree with wire hops (mergeTree, drawn from seed), which
// must also encode to the one accumulator's bytes.
func FuzzExactSum(f *testing.F) {
	floats := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	near63 := math.Ldexp(1<<53-1, 63-53)
	f.Add(floats(0x1p-64, -0x1p-64, 0x1p-65, 3*0x1p-65), int64(1))
	f.Add(floats(near63, near63, near63, -0x1p-64), int64(2))
	f.Add(floats(-near63, -near63, 0x1p63, -0x1p62), int64(3))
	f.Add(floats(math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0x1p-1022, 0.1), int64(4))
	f.Add(floats(math.Inf(1), 12345.67, math.NaN(), 0), int64(5))
	f.Add(floats(math.Inf(-1), 1e308, 1e308, -1e-300, 9007199254740993), int64(6))
	f.Add(floats(0.1, 0.2, 0.3, -0.6, 1e16, -1e16), int64(7))
	f.Fuzz(func(t *testing.T, raw []byte, seed int64) {
		var obs []relation.Value
		for ; len(raw) >= 8 && len(obs) < 32; raw = raw[8:] {
			obs = append(obs, relation.Float(math.Float64frombits(binary.LittleEndian.Uint64(raw))))
		}
		if len(obs) == 0 {
			return
		}
		wantSum, wantAvg := referenceSum(obs)
		rng := rand.New(rand.NewSource(seed))
		for _, fn := range []*FuncCall{{Name: "SUM"}, {Name: "AVG"}} {
			want := wantSum
			if fn.Name == "AVG" {
				want = wantAvg
			}
			one := NewAggregator(fn)
			for _, v := range obs {
				one.Observe(v)
			}
			canon, err := one.AppendBinary(nil)
			if err != nil {
				t.Fatal(err)
			}
			tree := mergeTree(t, rng, fn, obs)
			for _, a := range []*Aggregator{one, tree} {
				if got := a.Result(); !sameBits(got, want) {
					t.Fatalf("%s%v = %v (%x), want %v (%x)", fn.Name, obs, got, math.Float64bits(got.F), want, math.Float64bits(want.F))
				}
			}
			if b, err := tree.AppendBinary(nil); err != nil || !bytes.Equal(b, canon) {
				t.Fatalf("%s%v: a merge tree encodes %x (%v), one accumulator %x", fn.Name, obs, b, err, canon)
			}
		}
	})
}
