package serve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// latRingSize is the number of latency samples each worker retains
// for the percentile estimates (a fixed ring, so recording is O(1)
// and allocation-free).
const latRingSize = 1024

// maxWidthBuckets is the number of batch-width histogram buckets:
// widths 1..maxWidthBuckets-1 map one-to-one and anything wider folds
// into the last bucket (the default MaxBatch is 32, so folding only
// happens with an explicitly raised cap).
const maxWidthBuckets = 32

// statsState is the predictor's observability state: atomic counters
// plus one latency sample ring per worker, so hot-path recording
// never contends across replicas.
type statsState struct {
	completed atomic.Uint64
	batches   atomic.Uint64
	rejected  atomic.Uint64 // AdmitReject refusals (ErrQueueFull)
	canceled  atomic.Uint64 // requests abandoned while queued (ctx expiry)
	panics    atomic.Uint64 // requests failed with ErrPanicked
	rebuilds  atomic.Uint64 // replicas retired and rebuilt after PanicLimit

	lat []latRing // one per worker

	// widths is the effective-batch-width histogram: bucket w-1 counts
	// requests completed in a fused group of width w (width 1 = the
	// scalar path) and retains their latency samples.
	widths [maxWidthBuckets]widthBucket
}

// widthBucket is one batch-width histogram cell.
type widthBucket struct {
	count atomic.Uint64
	lat   latRing
}

// recordWidth records one completed request that ran in a fused group
// of the given width.
func (s *statsState) recordWidth(w int, d time.Duration) {
	if w > maxWidthBuckets {
		w = maxWidthBuckets
	}
	b := &s.widths[w-1]
	b.count.Add(1)
	b.lat.record(d)
}

// latRing is one worker's latency samples. The mutex is effectively
// uncontended (only the owning worker records; Stats readers snapshot
// rarely).
type latRing struct {
	mu  sync.Mutex
	buf [latRingSize]int64 // nanoseconds
	n   uint64             // total samples ever recorded
}

func (l *latRing) record(d time.Duration) {
	l.mu.Lock()
	l.buf[l.n%latRingSize] = int64(d)
	l.n++
	l.mu.Unlock()
}

// snapshotInto appends the ring's retained samples to dst.
func (l *latRing) snapshotInto(dst []int64) []int64 {
	l.mu.Lock()
	m := l.n
	if m > latRingSize {
		m = latRingSize
	}
	dst = append(dst, l.buf[:m]...)
	l.mu.Unlock()
	return dst
}

// percentiles returns the p50 and p99 of the retained latency samples
// (nearest-rank over the merged per-worker ring snapshots).
func (s *statsState) percentiles() (p50, p99 time.Duration) {
	var samples []int64
	for w := range s.lat {
		samples = s.lat[w].snapshotInto(samples)
	}
	m := len(samples)
	if m == 0 {
		return 0, 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	p50 = time.Duration(samples[(m-1)*50/100])
	p99 = time.Duration(samples[(m-1)*99/100])
	return p50, p99
}

// Stats is a point-in-time snapshot of a Predictor's service metrics.
type Stats struct {
	// Completed is the number of finished predictions.
	Completed uint64
	// Batches is the number of micro-batches run.
	Batches uint64
	// Rejected counts requests refused with ErrQueueFull under the
	// AdmitReject admission policy; Canceled counts requests whose
	// context expired while they were still queued.
	Rejected uint64
	Canceled uint64
	// Panics counts requests that failed with ErrPanicked (the model
	// panicked mid-inference); Rebuilds counts replicas retired and
	// rebuilt from the shared-weight snapshot after PanicLimit
	// consecutive-panic strikes.
	Panics   uint64
	Rebuilds uint64
	// QueueDepth is the number of requests currently waiting.
	QueueDepth int
	// Uptime is the time since NewPredictor; Throughput is
	// Completed/Uptime in predictions per second.
	Uptime     time.Duration
	Throughput float64
	// P50 and P99 are request latencies (enqueue to completion) over
	// the most recent samples.
	P50, P99 time.Duration
	// EffectiveBatch is the completed-weighted mean fused-batch width:
	// the average number of requests that shared a forward pass with
	// each completed request (1.0 = everything ran the scalar path).
	EffectiveBatch float64
	// Widths is the per-width completion histogram with per-width
	// latency percentiles, sorted by ascending width; widths beyond
	// the last bucket fold into it. Empty widths are omitted.
	Widths []WidthStat
}

// WidthStat is one row of the batch-width histogram.
type WidthStat struct {
	Width    int
	Count    uint64
	P50, P99 time.Duration
}

// Stats snapshots the predictor's service metrics. Safe to call
// concurrently with predictions and after Close.
func (p *Predictor) Stats() Stats {
	s := Stats{
		Completed:  p.stats.completed.Load(),
		Batches:    p.stats.batches.Load(),
		Rejected:   p.stats.rejected.Load(),
		Canceled:   p.stats.canceled.Load(),
		Panics:     p.stats.panics.Load(),
		Rebuilds:   p.stats.rebuilds.Load(),
		QueueDepth: len(p.queue),
		Uptime:     time.Since(p.start),
	}
	if s.Uptime > 0 {
		s.Throughput = float64(s.Completed) / s.Uptime.Seconds()
	}
	s.P50, s.P99 = p.stats.percentiles()
	var weighted, total uint64
	var samples []int64
	for i := range p.stats.widths {
		b := &p.stats.widths[i]
		c := b.count.Load()
		if c == 0 {
			continue
		}
		w := i + 1
		weighted += uint64(w) * c
		total += c
		samples = b.lat.snapshotInto(samples[:0])
		ws := WidthStat{Width: w, Count: c}
		if m := len(samples); m > 0 {
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			ws.P50 = time.Duration(samples[(m-1)*50/100])
			ws.P99 = time.Duration(samples[(m-1)*99/100])
		}
		s.Widths = append(s.Widths, ws)
	}
	if total > 0 {
		s.EffectiveBatch = float64(weighted) / float64(total)
	}
	return s
}

// String renders the snapshot for logs and load drivers.
func (s Stats) String() string {
	return fmt.Sprintf(
		"completed=%d throughput=%.0f/s p50=%s p99=%s queue=%d batches=%d eff-batch=%.1f rejected=%d canceled=%d panics=%d rebuilds=%d uptime=%s",
		s.Completed, s.Throughput, s.P50, s.P99, s.QueueDepth, s.Batches, s.EffectiveBatch,
		s.Rejected, s.Canceled, s.Panics, s.Rebuilds, s.Uptime.Round(time.Millisecond))
}
