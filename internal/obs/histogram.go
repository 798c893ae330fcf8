package obs

import "sync/atomic"

// BucketsBytes is the standard pinned bucket set: packet and queue sizes
// from 64 B to 16 MiB in powers of two (plus the implicit +Inf overflow
// bucket). Bucket bounds are part of the export schema: changing them
// changes every histogram export, so they are frozen by a golden test
// (TestBucketBoundariesGolden).
func BucketsBytes() []int64 {
	b := make([]int64, 0, 19)
	for v := int64(64); v <= 16<<20; v *= 2 {
		b = append(b, v)
	}
	return b
}

// Histogram is a fixed-bucket histogram of int64 observations. Bucket i
// counts observations v with v <= bounds[i] (and v > bounds[i-1]); one
// extra overflow bucket counts v > bounds[len-1]. Observations are atomic;
// quantiles are estimated from bucket counts without storing or sorting
// the observations. Methods no-op on a nil receiver.
type Histogram struct {
	name   string
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	count  atomic.Int64
	sum    atomic.Int64
}

func newHistogram(name string, bounds []int64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram " + name + " needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram " + name + " bounds must be strictly increasing")
		}
	}
	return &Histogram{
		name:   name,
		bounds: append([]int64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.counts[h.bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// bucketOf returns the index of the bucket v falls into (binary search:
// first bound >= v; overflow bucket if none).
func (h *Histogram) bucketOf(v int64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// point snapshots the histogram into its exported form.
func (h *Histogram) point() HistogramPoint {
	p := HistogramPoint{
		Name:   h.name,
		Bounds: append([]int64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		p.Counts[i] = h.counts[i].Load()
	}
	return p
}
