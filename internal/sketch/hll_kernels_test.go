package sketch

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"toplists/internal/simrand"
	"toplists/internal/snapshot"
)

// The straightforward HLL kernels the optimized ones in sketch.go must
// reproduce bit for bit: a float Ldexp sum for Count, a byte-wise max for
// Merge, and a leading-zero loop for Add's rho.

func countOracle(h *HLL) float64 {
	m := float64(len(h.regs))
	var sum float64
	zeros := 0
	for _, r := range h.regs {
		sum += math.Ldexp(1, -int(r))
		if r == 0 {
			zeros++
		}
	}
	est := alpha(len(h.regs)) * m * m / sum
	if est <= 2.5*m && zeros > 0 {
		return m * math.Log(m/float64(zeros))
	}
	return est
}

func mergeOracle(dst, src []uint8) {
	for i, r := range src {
		if r > dst[i] {
			dst[i] = r
		}
	}
}

func addOracle(h *HLL, item uint64) {
	x := mix(item)
	idx := x >> (64 - h.p)
	w := x<<h.p | 1<<(h.p-1)
	rho := uint8(1)
	for w&(1<<63) == 0 {
		rho++
		w <<= 1
	}
	if rho > h.regs[idx] {
		h.regs[idx] = rho
	}
}

// fillRegs sets every register from data, capped at limit (cycling data
// when it is shorter than the register array).
func fillRegs(h *HLL, data []byte, limit uint8) {
	if len(data) == 0 {
		return
	}
	for i := range h.regs {
		h.regs[i] = data[i%len(data)] % (limit + 1)
	}
}

// FuzzHLLKernels checks the optimized Count, Merge and Add against the
// oracles above: Count must be bit-identical (math.Float64bits), over every
// precision and over register caps on both sides of the 53-p integer-sum
// limit, so the Ldexp fallback is exercised too; Merge must equal a
// byte-wise max for any registers below 0x80; Add must set the same
// registers as the leading-zero loop.
func FuzzHLLKernels(f *testing.F) {
	f.Add(uint8(11), uint8(5), uint64(1), []byte{0, 1, 2, 3}, []byte{3, 2, 1, 0})
	f.Add(uint8(4), uint8(61), uint64(2), []byte{49, 50, 61, 0}, []byte{7})
	f.Add(uint8(14), uint8(39), uint64(3), []byte{39, 40}, []byte{0x7f, 0})
	f.Add(uint8(18), uint8(47), uint64(4), []byte{}, []byte{35, 36, 47})
	f.Add(uint8(0), uint8(0), uint64(5), []byte{0}, []byte{0})
	f.Fuzz(func(t *testing.T, pb, cap uint8, seed uint64, a, b []byte) {
		p := 4 + pb%15
		maxRho := 65 - p // the largest rho Add can produce

		h := NewHLL(p)
		fillRegs(h, a, cap%(maxRho+1))
		if got, want := h.Count(), countOracle(h); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("p=%d cap=%d: Count %v (%#x), oracle %v (%#x)",
				p, cap%(maxRho+1), got, math.Float64bits(got), want, math.Float64bits(want))
		}

		o := NewHLL(p)
		fillRegs(o, b, 0x7f)
		want := append([]uint8(nil), h.regs...)
		mergeOracle(want, o.regs)
		h.Merge(o)
		for i := range want {
			if h.regs[i] != want[i] {
				t.Fatalf("p=%d: Merge register %d = %d, byte-wise max %d", p, i, h.regs[i], want[i])
			}
		}

		got, ref := NewHLL(p), NewHLL(p)
		src := simrand.New(seed)
		for i := 0; i < 64; i++ {
			item := src.Uint64()
			if i%4 == 0 {
				item = uint64(i) // sequential IDs, as the simulation adds
			}
			got.Add(item)
			addOracle(ref, item)
		}
		for i := range ref.regs {
			if got.regs[i] != ref.regs[i] {
				t.Fatalf("p=%d seed=%d: Add register %d = %d, oracle %d", p, seed, i, got.regs[i], ref.regs[i])
			}
		}
	})
}

// TestDecodeHLLRegisterBound: a register file Add could never produce (a
// register above 65-p) is rejected as corrupt, so a decoded HLL always
// meets Merge's below-0x80 precondition; the largest legal register
// round-trips.
func TestDecodeHLLRegisterBound(t *testing.T) {
	const p = 4
	decode := func(top uint8) (Distinct, error) {
		h := NewHLL(p)
		h.regs[3] = top
		var e snapshot.Encoder
		EncodeDistinct(&e, h)
		var buf bytes.Buffer
		if _, err := e.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return DecodeDistinct(snapshot.NewDecoder(buf.Bytes()))
	}
	d, err := decode(65 - p)
	if err != nil {
		t.Fatalf("largest legal register rejected: %v", err)
	}
	if got := d.(*HLL).regs[3]; got != 65-p {
		t.Fatalf("register round-tripped as %d, want %d", got, 65-p)
	}
	for _, top := range []uint8{66 - p, 0x80, 0xff} {
		if _, err := decode(top); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("register %d: err = %v, want ErrCorrupt", top, err)
		}
	}
}

// filledHLL returns a p-register HLL that has seen n distinct items.
func filledHLL(p uint8, n int, seed uint64) *HLL {
	h := NewHLL(p)
	src := simrand.New(seed)
	for i := 0; i < n; i++ {
		h.Add(src.Uint64())
	}
	return h
}

// BenchmarkHLLCount estimates a p=11 HLL that has seen n items: dense
// (4096) and sparse (16, the typical tracked site at the day barrier).
func BenchmarkHLLCount(b *testing.B) {
	for _, n := range []int{4096, 16} {
		b.Run(fmt.Sprintf("items=%d", n), func(b *testing.B) {
			h := filledHLL(11, n, 1)
			var sink float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += h.Count()
			}
			_ = sink
		})
	}
}

// BenchmarkHLLMerge merges a p=11 HLL that has seen n items into a full
// one: dense (4096 items, every register word set) and sparse (16 items,
// the typical per-site shard summary at the day barrier).
func BenchmarkHLLMerge(b *testing.B) {
	for _, n := range []int{4096, 16} {
		b.Run(fmt.Sprintf("items=%d", n), func(b *testing.B) {
			h, o := filledHLL(11, 4096, 1), filledHLL(11, n, 2)
			b.SetBytes(int64(len(o.regs)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Merge(o)
			}
		})
	}
}

// BenchmarkTopKDistinctMerge merges two full p=11 summaries tracking the
// same 4096 keys (8 items each) — the per-combo unit of barrier work.
// Repeated merges keep the candidate set fixed, so every iteration does
// the same key matching and 4096 register merges.
func BenchmarkTopKDistinctMerge(b *testing.B) {
	const keys = 4096
	fill := func(seed uint64) *TopKDistinct {
		t := NewTopKDistinct(keys, 11)
		src := simrand.New(seed)
		for k := uint64(0); k < keys; k++ {
			for j := 0; j < 8; j++ {
				t.Add(k, src.Uint64())
			}
		}
		return t
	}
	t, o := fill(1), fill(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Merge(o)
	}
}
