// Package sketch provides mergeable, memory-bounded stream summaries for
// the aggregation pipeline: exact and HyperLogLog distinct counters behind
// the Distinct interface, a count-min frequency sketch (CountMin), and a
// space-saving top-k summary (SpaceSaving), all sized through one Config.
//
// Every summary supports Merge and Reset, and merging per-shard summaries
// is either exactly (CountMin: cell-wise sums; HLL: register maxima) or
// within proven bounds (SpaceSaving) equal to summarizing the concatenated
// stream — which is what lets the traffic engine accumulate bounded state
// per shard and combine fixed-size summaries at the day barrier instead of
// replaying per-event buffers. With Config.Enabled off the factories fall
// back to exact structures, the oracle the sketch path is tested against.
package sketch

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// Distinct counts the approximate or exact number of distinct uint64 items.
type Distinct interface {
	// Add records an item. Items are expected to be pre-hashed or uniformly
	// distributed (client identities in the simulation are hashed IDs).
	Add(item uint64)
	// Count returns the estimated number of distinct items added.
	Count() float64
	// Merge folds another counter of the same concrete type into this one.
	// It panics on a type mismatch.
	Merge(other Distinct)
	// Reset returns the counter to empty for reuse.
	Reset()
}

// Exact is a map-backed exact distinct counter.
type Exact struct {
	seen map[uint64]struct{}
}

// NewExact returns an empty exact counter.
func NewExact() *Exact {
	return &Exact{seen: make(map[uint64]struct{})}
}

// Add implements Distinct.
func (e *Exact) Add(item uint64) { e.seen[item] = struct{}{} }

// Count implements Distinct.
func (e *Exact) Count() float64 { return float64(len(e.seen)) }

// Merge implements Distinct.
func (e *Exact) Merge(other Distinct) {
	o, ok := other.(*Exact)
	if !ok {
		panic("sketch: merging Exact with non-Exact")
	}
	for k := range o.seen {
		e.seen[k] = struct{}{}
	}
}

// Reset implements Distinct.
func (e *Exact) Reset() { clear(e.seen) }

// MemBytes returns the logical footprint of the seen-set.
func (e *Exact) MemBytes() int { return len(e.seen) * 16 }

// HLL is a HyperLogLog counter with 2^p registers and the standard
// small-range (linear counting) correction. p=14 gives a typical relative
// error of about 0.81%, plenty below the simulation's sampling noise.
type HLL struct {
	p    uint8
	regs []uint8
}

// NewHLL returns a HyperLogLog with 2^p registers, 4 <= p <= 18.
func NewHLL(p uint8) *HLL {
	if p < 4 || p > 18 {
		panic("sketch: HLL precision out of range [4,18]")
	}
	return &HLL{p: p, regs: make([]uint8, 1<<p)}
}

// mix applies a 64-bit finalizer so that sequential IDs are safe to Add.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Add implements Distinct. rho is the 1-based position of the first set
// bit after the index bits; the sentinel bit at p-1 bounds it by 65-p, so
// every register stays below 0x80 (see Merge).
func (h *HLL) Add(item uint64) {
	x := mix(item)
	idx := x >> (64 - h.p)
	w := x<<h.p | 1<<(h.p-1)
	rho := uint8(bits.LeadingZeros64(w) + 1)
	if rho > h.regs[idx] {
		h.regs[idx] = rho
	}
}

// Count implements Distinct.
//
// The harmonic sum of 2^-r is computed in integers: scaled by 2^(53-p),
// each term is 1<<(53-p-r), and the total is at most 2^p·2^(53-p) = 2^53,
// so it fits a uint64 and converts to float64 exactly. The term-by-term
// float sum is itself exact under the same condition (every partial sum is
// a multiple of 2^-(53-p) no larger than 2^p, hence representable), so both
// give the same bits. A register above 53-p needs a run of 53-p zero hash
// bits; should one occur, Count falls back to the float sum.
//
// The registers are first histogrammed by value (every register is at
// most 65-p <= 61, so six bits index it), into four interleaved tables so
// that runs of equal registers do not serialize on one counter; all-zero
// words, the bulk of a lightly filled counter, are tallied whole.
func (h *HLL) Count() float64 {
	var hist [4][64]uint32
	var zeroWords uint32
	regs := h.regs
	for i := 0; i+8 <= len(regs); i += 8 {
		w := regs[i : i+8]
		if binary.LittleEndian.Uint64(w) == 0 {
			zeroWords++
			continue
		}
		hist[0][w[0]&63]++
		hist[1][w[1]&63]++
		hist[2][w[2]&63]++
		hist[3][w[3]&63]++
		hist[0][w[4]&63]++
		hist[1][w[5]&63]++
		hist[2][w[6]&63]++
		hist[3][w[7]&63]++
	}
	hist[0][0] += 8 * zeroWords
	shift := 53 - uint(h.p)
	var isum uint64
	for r := range 64 {
		n := uint64(hist[0][r] + hist[1][r] + hist[2][r] + hist[3][r])
		if n == 0 {
			continue
		}
		if uint(r) > shift {
			return h.countFloat()
		}
		isum += n << (shift - uint(r))
	}
	zeros := int(hist[0][0] + hist[1][0] + hist[2][0] + hist[3][0])
	return h.estimate(math.Ldexp(float64(isum), -int(shift)), zeros)
}

// countFloat is Count with the harmonic sum taken term by term in float64.
func (h *HLL) countFloat() float64 {
	var sum float64
	zeros := 0
	for _, r := range h.regs {
		sum += math.Ldexp(1, -int(r))
		if r == 0 {
			zeros++
		}
	}
	return h.estimate(sum, zeros)
}

// estimate turns the harmonic sum of 2^-r and the empty-register count
// into the cardinality estimate.
func (h *HLL) estimate(sum float64, zeros int) float64 {
	m := float64(len(h.regs))
	est := alpha(len(h.regs)) * m * m / sum
	if est <= 2.5*m && zeros > 0 {
		// Small-range correction: linear counting.
		return m * math.Log(m/float64(zeros))
	}
	return est
}

func alpha(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	}
	return 0.7213 / (1 + 1.079/float64(m))
}

// Merge implements Distinct.
func (h *HLL) Merge(other Distinct) {
	o, ok := other.(*HLL)
	if !ok || o.p != h.p {
		panic("sketch: merging incompatible HLLs")
	}
	// Register-wise maximum, eight registers per step. Registers are below
	// 0x80 (rho <= 65-p), so in each byte lane (a|0x80)-b never borrows
	// from its neighbour and keeps its high bit exactly when a >= b; that
	// bit, spread over the lane, selects a or b. 2^p (p >= 4) registers
	// are a whole number of words.
	src, dst := o.regs, h.regs[:len(o.regs)]
	for i := 0; i+8 <= len(src); i += 8 {
		b := binary.LittleEndian.Uint64(src[i : i+8])
		if b == 0 {
			continue // common in lightly filled per-shard counters
		}
		d := dst[i : i+8]
		a := binary.LittleEndian.Uint64(d)
		ge := ((a | swarHigh) - b) & swarHigh
		mask := (ge >> 7) * 0xff
		binary.LittleEndian.PutUint64(d, a&mask|b&^mask)
	}
}

// swarHigh has the high bit of every byte lane set.
const swarHigh = 0x8080808080808080

// Reset implements Distinct.
func (h *HLL) Reset() { clear(h.regs) }

// MemBytes returns the register array footprint, a pure function of the
// precision (safe for deterministic gauges).
func (h *HLL) MemBytes() int { return len(h.regs) }

// Factory builds fresh Distinct counters; the pipeline holds one per metric.
type Factory func() Distinct

// ExactFactory returns exact counters.
func ExactFactory() Distinct { return NewExact() }

// HLLFactory returns a factory of HLLs at the given precision.
func HLLFactory(p uint8) Factory {
	return func() Distinct { return NewHLL(p) }
}
