// Package serve turns a trained core.Model into a concurrent, batched
// prediction service.
//
// The paper predicts SQL query properties *before execution* precisely
// so the predictions can sit in the interactive path of a database
// frontend — which means one trained model must answer many users'
// requests at once. A core.Model is not safe for concurrent use (its
// predict path reuses internal scratch, the allocation-free contract
// of internal/nn), so a Predictor wraps it with a pool of shared-
// weight inference replicas (core.Model.Replicate, built on the same
// nn.ParallelModel.CloneShared mechanism as data-parallel training):
// requests flow through a bounded queue to persistent worker
// goroutines, each owning one replica, with an optional micro-batching
// window so bursts amortize dispatch overhead.
//
// Because replicas share weights and the forward math is identical,
// pooled predictions are bit-identical to direct sequential Model
// calls; the warm single-prediction path performs zero allocations for
// the neural models.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/workpool"
)

// ErrClosed is returned by Predict once the Predictor has been closed.
var ErrClosed = errors.New("serve: predictor closed")

// ErrQueueFull is returned under the AdmitReject admission policy when
// the request queue is full at enqueue time.
var ErrQueueFull = errors.New("serve: request queue full")

// ErrPanicked is returned (wrapped, with the panic value) for a
// request whose inference panicked. The panic is confined to that one
// request: the worker recovers, the pool keeps serving, and a replica
// that panics PanicLimit times is retired and rebuilt from the model
// snapshot. Match with errors.Is.
var ErrPanicked = errors.New("serve: model panicked")

// AdmissionPolicy selects what happens when a request arrives and the
// bounded queue is full.
type AdmissionPolicy int

const (
	// AdmitBlock applies backpressure: senders wait for queue space,
	// honoring cancellation while they wait.
	AdmitBlock AdmissionPolicy = iota
	// AdmitReject fails fast: Predict returns ErrQueueFull instead of
	// waiting, bounding worst-case latency under overload (the
	// admission-control mode a deadline-driven front-end wants).
	AdmitReject
)

// Options configures a Predictor.
type Options struct {
	// Replicas is the number of worker goroutines, each owning one
	// shared-weight model replica. <= 0 selects GOMAXPROCS.
	Replicas int
	// QueueSize bounds the request queue; senders block (backpressure)
	// when it is full. <= 0 selects max(4*Replicas, 2*MaxBatch).
	QueueSize int
	// BatchWindow is how long a worker holding a non-full batch waits
	// for more requests before running it. 0 disables waiting: workers
	// still drain whatever is already queued (opportunistic batching)
	// but never sit on a request.
	BatchWindow time.Duration
	// MaxBatch caps how many requests one worker drains per batch.
	// <= 0 selects 32.
	MaxBatch int
	// Admission selects Predict's full-queue behavior (default
	// AdmitBlock).
	Admission AdmissionPolicy
	// PanicLimit is how many panics one replica absorbs before it is
	// retired and rebuilt from the model snapshot (fresh scratch state;
	// weights are shared and immutable either way). <= 0 selects 3.
	PanicLimit int
}

// withDefaults resolves unset options.
func (o Options) withDefaults() Options {
	if o.Replicas <= 0 {
		o.Replicas = runtime.GOMAXPROCS(0)
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 32
	}
	if o.PanicLimit <= 0 {
		o.PanicLimit = 3
	}
	if o.QueueSize <= 0 {
		o.QueueSize = 4 * o.Replicas
		if o.QueueSize < 2*o.MaxBatch {
			o.QueueSize = 2 * o.MaxBatch
		}
	}
	return o
}

// Request lifecycle states. A queued request is owned jointly by the
// caller and the worker pool; the state CAS decides who wins when a
// cancellation races a worker picking the request up.
const (
	reqQueued    uint32 = iota // waiting in the queue (or a worker's batch)
	reqRunning                 // a worker won the CAS and is computing it
	reqAbandoned               // the caller won the CAS after cancellation
)

// request is one queued prediction. Requests are pooled and their done
// channel (buffered, capacity 1) is reused, so the warm request path
// allocates nothing.
type request struct {
	stmt string
	dst  []float64 // caller's probability row (classification)
	out  []float64
	val  float64
	// err is the per-request failure (ErrPanicked-wrapped) set by the
	// worker before the done signal; nil on success.
	err  error
	enq  time.Time
	done chan struct{}
	// next links the requests of one Predict call in statement order.
	// Only the calling goroutine follows it; release clears it.
	next *request
	// state arbitrates caller cancellation vs. worker pickup: exactly
	// one side transitions it away from reqQueued. An abandoned request
	// is released back to the pool by the worker that drains it; a
	// running one by the caller after the done signal.
	state atomic.Uint32
}

// Result is one statement's prediction. The model's task picks the
// head: classification models fill Probs, regression models fill Log.
type Result struct {
	// Probs is the class distribution, written into the row's existing
	// backing array (grown only when its capacity is insufficient), so a
	// caller that reuses its results predicts without allocating.
	Probs []float64
	// Log is the log-space regression prediction.
	Log float64
}

// Predictor serves predictions from a pool of shared-weight replicas
// of one trained model. Predict is safe for concurrent use and its
// results are bit-identical to sequential calls on the wrapped model.
//
// Predict honors cancellation and deadlines while a request is queued,
// applies the configured admission policy, and returns ErrClosed after
// Close. Once a worker picks a request up, inference runs to
// completion (single predictions take microseconds) and the call
// returns the result rather than the context error.
type Predictor struct {
	model    *core.Model
	opts     Options
	classify bool // the head every request needs, from model.Task

	queue    chan *request
	pool     *workpool.Pool
	replicas []*core.Model
	reqPool  sync.Pool

	mu          sync.RWMutex // guards closed against in-flight sends
	closed      bool
	workersDone chan struct{}

	start time.Time
	stats statsState
}

// NewPredictor builds and starts a predictor for a trained model. The
// caller should Close it to release the worker goroutines, and must
// not mutate the model (e.g. core.FineTune) while the predictor is
// live — replicas alias its weights.
func NewPredictor(m *core.Model, opts Options) *Predictor {
	opts = opts.withDefaults()
	p := &Predictor{
		model:       m,
		opts:        opts,
		classify:    m.Task.IsClassification(),
		queue:       make(chan *request, opts.QueueSize),
		replicas:    make([]*core.Model, opts.Replicas),
		workersDone: make(chan struct{}),
		start:       time.Now(),
	}
	for i := range p.replicas {
		p.replicas[i] = m.Replicate()
	}
	p.stats.lat = make([]latRing, opts.Replicas)
	p.reqPool.New = func() any {
		return &request{done: make(chan struct{}, 1)}
	}
	p.pool = workpool.New(opts.Replicas)
	go func() {
		// Workers park in their request loops until Close; the pool's
		// broadcast Run doubles as the "all workers exited" barrier.
		p.pool.Run(p.worker)
		p.pool.Close()
		close(p.workersDone)
	}()
	return p
}

// Model returns the wrapped model.
func (p *Predictor) Model() *core.Model { return p.model }

// Close drains in-flight requests, stops the workers, and releases the
// pool. It is idempotent and safe to call from any number of
// goroutines racing with in-flight Predict calls: requests admitted
// before Close complete normally, and calls arriving after it return
// ErrClosed.
func (p *Predictor) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
	p.mu.Unlock()
	<-p.workersDone
}

// Predict predicts every statement into the matching element of out,
// which must be at least as long as stmts. The statements fan out
// across the replica pool; a single statement is a batch of one.
//
// On error Predict returns the first failure — ctx expiry, ErrQueueFull
// under AdmitReject, ErrClosed, or a wrapped ErrPanicked for a
// statement whose inference panicked — and out holds results only for
// the statements that succeeded. Requests already queued are awaited
// or abandoned, never leaked. With capacity-sufficient Probs rows the
// warm single-statement path performs zero allocations.
func (p *Predictor) Predict(ctx context.Context, stmts []string, out []Result) error {
	if len(out) < len(stmts) {
		return fmt.Errorf("serve: %d results for %d statements", len(out), len(stmts))
	}
	var head, tail *request
	var firstErr error
	for i, s := range stmts {
		r, err := p.enqueue(ctx, s, out[i].Probs)
		if err != nil {
			firstErr = err
			break
		}
		if tail == nil {
			head = r
		} else {
			tail.next = r
		}
		tail = r
	}
	for i, r := 0, head; r != nil; i++ {
		// Read the link first: an abandoned request belongs to the
		// worker that drains it and may be recycled at any moment.
		next := r.next
		if err := p.await(ctx, r); err != nil {
			if firstErr == nil {
				firstErr = err
			}
		} else {
			if r.err == nil {
				out[i].Probs, out[i].Log = r.out, r.val
			} else if firstErr == nil {
				firstErr = r.err
			}
			p.release(r)
		}
		r = next
	}
	return firstErr
}

// enqueue submits one request honoring ctx and the admission policy:
// it returns ErrClosed after Close, ErrQueueFull when the queue is
// full under AdmitReject, and ctx.Err() when ctx expires while waiting
// for queue space under AdmitBlock.
func (p *Predictor) enqueue(ctx context.Context, stmt string, dst []float64) (*request, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := p.reqPool.Get().(*request)
	r.stmt, r.dst = stmt, dst
	r.state.Store(reqQueued)
	r.enq = time.Now()
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		p.release(r)
		return nil, ErrClosed
	}
	// Fast path: queue has room (the common case for both policies).
	select {
	case p.queue <- r:
		p.mu.RUnlock()
		return r, nil
	default:
	}
	if p.opts.Admission == AdmitReject {
		p.mu.RUnlock()
		p.release(r)
		p.stats.rejected.Add(1)
		return nil, ErrQueueFull
	}
	select {
	case p.queue <- r:
		p.mu.RUnlock()
		return r, nil
	case <-ctx.Done():
		p.mu.RUnlock()
		p.release(r)
		return nil, ctx.Err()
	}
}

// await waits for a request to complete, honoring ctx while it is
// still queued. On cancellation it races the workers for ownership:
// winning means the request is marked abandoned (the draining worker
// releases it) and the context error is returned; losing means a
// worker is already computing the result, which is imminent, so await
// waits it out and returns nil. After a nil return the caller owns r
// and must release it.
func (p *Predictor) await(ctx context.Context, r *request) error {
	select {
	case <-r.done:
		return nil
	case <-ctx.Done():
		if r.state.CompareAndSwap(reqQueued, reqAbandoned) {
			p.stats.canceled.Add(1)
			return ctx.Err()
		}
		// A worker won the pickup race (or already finished — select
		// picks randomly among ready cases, so the done signal may
		// already be buffered).
		<-r.done
		return nil
	}
}

// release returns a request to the pool.
func (p *Predictor) release(r *request) {
	r.stmt = ""
	r.dst, r.out, r.err, r.next = nil, nil, nil, nil
	p.reqPool.Put(r)
}

// workerScratch holds one worker's fused-batch buffers, preallocated
// at MaxBatch capacity so the warm fused path allocates nothing.
type workerScratch struct {
	stmts []string
	dsts  [][]float64
	vals  []float64
}

func newWorkerScratch(maxBatch int) *workerScratch {
	return &workerScratch{
		stmts: make([]string, 0, maxBatch),
		dsts:  make([][]float64, 0, maxBatch),
		vals:  make([]float64, 0, maxBatch),
	}
}

// worker is one replica loop: take a request, gather a micro-batch,
// run it, repeat until the queue closes. The worker first wins the
// ownership CAS for every request in the batch (so cancellation races
// settle before any compute), then runs the owned requests — two or
// more of them as ONE fused batched forward on the replica, the n-row
// matrix path of core.Model's Batch methods — splitting the results
// back per request. A lone request runs the scalar path once.
//
// Fault isolation is preserved exactly: a fused call that panics
// completes nothing, and the worker falls back to per-request
// processing, where the per-request recover boundary fails only the
// poisoned request (counted once in Stats().Panics) and serves the
// rest. Replica rebuild strikes accrue only from those per-request
// panics, so a replica is retired after PanicLimit genuinely failed
// requests, same as without batching.
func (p *Predictor) worker(w int) {
	rep := p.replicas[w]
	ring := &p.stats.lat[w]
	batch := make([]*request, 0, p.opts.MaxBatch)
	sc := newWorkerScratch(p.opts.MaxBatch)
	var timer *time.Timer
	panics := 0
	for {
		r, ok := <-p.queue
		if !ok {
			return
		}
		batch = append(batch[:0], r)
		batch = p.gather(batch, &timer)
		// Count the batch before signaling any completion so Stats
		// taken right after a request finishes never sees Batches (or
		// Completed, counted at request completion) lagging the work
		// done.
		p.stats.batches.Add(1)
		// Win the ownership race against cancellation before touching
		// any request (dst aliases the caller's buffer): a caller that
		// abandoned a request has already returned. The batch compacts
		// in place to the owned requests.
		owned := batch[:0]
		for _, r := range batch {
			if !r.state.CompareAndSwap(reqQueued, reqRunning) {
				p.release(r)
				continue
			}
			owned = append(owned, r)
		}
		if len(owned) > 1 && p.runFused(rep, ring, owned, sc) {
			continue
		}
		// A lone request, or the fused-panic fallback: per-request
		// processing with the per-request recover boundary.
		for _, r := range owned {
			if p.process(rep, ring, r) {
				if panics++; panics >= p.opts.PanicLimit {
					rep = p.model.Replicate()
					p.replicas[w] = rep
					p.stats.rebuilds.Add(1)
					panics = 0
				}
				r.done <- struct{}{}
			}
		}
	}
}

// runFused runs a group of owned requests as a single fused batched
// call, reporting whether it completed. On a panic anywhere inside the
// fused forward it returns false having completed NO request — no done
// signal sent, no counters touched — so the caller's per-request
// fallback re-runs the whole group and only the poisoned request
// fails.
func (p *Predictor) runFused(rep *core.Model, ring *latRing, group []*request, sc *workerScratch) (ok bool) {
	n := len(group)
	sc.stmts = sc.stmts[:0]
	for _, r := range group {
		sc.stmts = append(sc.stmts, r.stmt)
	}
	defer func() {
		if v := recover(); v != nil {
			ok = false
		}
	}()
	if p.classify {
		sc.dsts = sc.dsts[:0]
		for _, r := range group {
			sc.dsts = append(sc.dsts, r.dst)
		}
		sc.dsts = rep.ProbsBatchInto(sc.stmts, sc.dsts)
		for i, r := range group {
			r.out = sc.dsts[i]
		}
	} else {
		sc.vals = rep.PredictLogBatchInto(sc.stmts, sc.vals)
		for i, r := range group {
			r.val = sc.vals[i]
		}
	}
	for _, r := range group {
		d := time.Since(r.enq)
		ring.record(d)
		p.stats.recordWidth(n, d)
		p.stats.completed.Add(1)
		r.done <- struct{}{}
	}
	// Drop caller-buffer and statement references so completed
	// requests' memory is not retained until the next fused batch.
	for i := range sc.dsts {
		sc.dsts[i] = nil
	}
	for i := range sc.stmts {
		sc.stmts[i] = ""
	}
	return true
}

// gather fills the batch up to MaxBatch: first by draining whatever is
// already queued (yielding once to let already-runnable clients land
// their sends), then — when a BatchWindow is configured — by waiting
// up to the window for more. The per-worker timer is reused across
// batches so the warm path allocates nothing.
func (p *Predictor) gather(batch []*request, timer **time.Timer) []*request {
	// Opportunistic fusing: a channel send to a blocked worker schedules
	// the worker immediately (runnext), so under concurrent load the
	// first drain often sees just one request while the other clients
	// are still runnable but haven't sent yet. One Gosched lets them
	// run and enqueue, widening the fused batch without spending any
	// wall-clock on a timer; at low load it's a few hundred ns.
	for spin := 0; ; spin++ {
		for len(batch) < p.opts.MaxBatch {
			select {
			case r, ok := <-p.queue:
				if !ok {
					return batch
				}
				batch = append(batch, r)
				continue
			default:
			}
			break
		}
		if spin > 0 || len(batch) >= p.opts.MaxBatch || p.opts.MaxBatch <= 1 {
			break
		}
		runtime.Gosched()
	}
	if p.opts.BatchWindow <= 0 || len(batch) >= p.opts.MaxBatch {
		return batch
	}
	t := *timer
	if t == nil {
		t = time.NewTimer(p.opts.BatchWindow)
		*timer = t
	} else {
		t.Reset(p.opts.BatchWindow)
	}
	for len(batch) < p.opts.MaxBatch {
		select {
		case r, ok := <-p.queue:
			if !ok {
				stopTimer(t)
				return batch
			}
			batch = append(batch, r)
		case <-t.C:
			return batch
		}
	}
	stopTimer(t)
	return batch
}

// stopTimer stops t and drains its channel so the next Reset starts
// clean.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// process runs one request on a replica, reporting whether the
// inference panicked. It signals completion itself only on success; a
// panicked request is signalled by the worker once its rebuild strike
// is counted. All accounting happens before the done signal: a caller
// that observed its request finish must find it reflected in Stats.
//
// The recover boundary is here, around exactly one request: a model
// panic (poisoned input, corrupted scratch) fails that request with a
// wrapped ErrPanicked and the worker moves on. The deferred check runs
// on the success path too but recover() is nil there, so the warm
// no-fault path stays allocation-free.
func (p *Predictor) process(rep *core.Model, ring *latRing, r *request) (panicked bool) {
	defer func() {
		if v := recover(); v != nil {
			panicked = true
			r.out = nil
			r.err = fmt.Errorf("%w: %v", ErrPanicked, v)
			p.stats.panics.Add(1)
			ring.record(time.Since(r.enq))
		}
	}()
	if p.classify {
		r.out = rep.ProbsInto(r.stmt, r.dst)
	} else {
		r.val = rep.PredictLog(r.stmt)
	}
	d := time.Since(r.enq)
	ring.record(d)
	p.stats.recordWidth(1, d)
	p.stats.completed.Add(1)
	r.done <- struct{}{}
	return false
}
