package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/client"
)

// The arrival schedule.
//
// Arrivals are a seeded Poisson process at the phase's fixed rate; a
// request is due at its arrival time and its latency runs from then
// until the reply, so a stall that delays later requests is charged to
// them (no coordinated omission). Go timers cannot pace this: an idle
// process sleeps in the network poller with millisecond resolution, so
// time.Sleep(20µs) takes about 1 ms and every latency would read the
// timer. A blocking nanosleep(2) is precise but holds one of the two
// Ps while it sleeps. The generator therefore sleeps on a timerfd
// registered with the network poller: the goroutine parks, the P stays
// free for the system under test, and epoll wakes it within about
// 10 µs of the due time on an idle 2-vCPU box. On waking it hands every
// due request to a pool of worker goroutines over a channel with room
// for the whole phase, so it never waits on the system under test. How
// late each hand-off ran is recorded as gen.late_p99_ms.

// phaseSpec is one open-loop phase.
type phaseSpec struct {
	name  string
	rate  float64 // requests per second
	dur   time.Duration
	trace bool // record spans for this phase's requests
	seed  int64
	// until, when non-nil, ends the phase early once closed.
	until <-chan struct{}
}

// phaseResult is what one phase measured.
type phaseResult struct {
	name   string
	sent   int
	failed int
	rate   float64
	dur    time.Duration
	ran    time.Duration // from the first due time to the last hand-off
	due    []int64       // arrival offsets, ns
	// winSteal is the CPU time (in /proc/stat ticks) the hypervisor
	// stole during each latency window.
	winSteal []float64
	lat      []int64 // due → reply, ns; -1 for a failed request
	late     []int64 // due → hand-off to a worker, ns
	classes  []int32 // per statement, for the output check
	vers     []int32 // per request
	stmts    []string
	errs     []string
	res      resources
}

// okStmts is the number of statements answered successfully.
func (p *phaseResult) okStmts(batch int) int { return (p.sent - p.failed) * batch }

// windows splits a phase into latency windows of 250 ms, or as long
// as it takes to expect 1000 arrivals if that is longer, so a window's
// p99 has about ten samples beyond it.
func windows(rate float64, dur time.Duration) (int, int64) {
	win := max(int64(250*time.Millisecond), int64(1000/rate*1e9))
	return max(int(int64(dur)/win), 1), win
}

// windowed returns the q-quantile of the phase's latencies as the
// median, over its latency windows, of each window's q-quantile, and
// the number of windows used. Only the windows in which the hypervisor
// stole no more CPU than in the phase's median window count: a vCPU
// descheduled for milliseconds stalls every request in flight, which
// measures the host, not the program. On a machine without steal every
// window counts.
func (p *phaseResult) windowed(q float64) (float64, int) {
	n, win := windows(p.rate, p.dur)
	buckets := make([][]int64, n)
	for i, d := range p.due {
		if p.lat[i] >= 0 {
			k := min(int(d/win), n-1)
			buckets[k] = append(buckets[k], p.lat[i])
		}
	}
	var steal []float64
	for k, b := range buckets {
		if len(b) > 0 {
			steal = append(steal, p.winSteal[k])
		}
	}
	limit := medianFloat(steal)
	vals := make([]float64, 0, n)
	for k, b := range buckets {
		if len(b) > 0 && p.winSteal[k] <= limit {
			vals = append(vals, quantile(b, q))
		}
	}
	return medianFloat(vals), len(vals)
}

// windowTable lists every latency window as [stolen ticks, requests,
// p50 µs, p99 µs] for the run record.
func (p *phaseResult) windowTable() [][4]float64 {
	n, win := windows(p.rate, p.dur)
	buckets := make([][]int64, n)
	for i, d := range p.due {
		if p.lat[i] >= 0 {
			k := min(int(d/win), n-1)
			buckets[k] = append(buckets[k], p.lat[i])
		}
	}
	out := make([][4]float64, n)
	for k, b := range buckets {
		out[k] = [4]float64{p.winSteal[k], float64(len(b)), quantile(b, 0.5) / 1e3, quantile(b, 0.99) / 1e3}
	}
	return out
}

// poisson returns the arrival offsets of a seeded Poisson process.
func poisson(rate float64, dur time.Duration, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	due := make([]int64, 0, int(rate*dur.Seconds()*1.1)+16)
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return due
		}
		due = append(due, int64(t*1e9))
	}
}

// stream hands out consecutive statements of the generated request
// stream.
type stream struct {
	stmts []string
	next  int // statements handed out
	sent  int // requests sent
}

func (s *stream) take(n int) ([]string, error) {
	if s.next+n > len(s.stmts) {
		return nil, fmt.Errorf("request stream exhausted: need %d more statements, %d left", n, len(s.stmts)-s.next)
	}
	out := s.stmts[s.next : s.next+n]
	s.next += n
	return out, nil
}

// drive runs one open-loop phase of predicts against s.main.
func drive(ctx context.Context, s *stack, src *stream, ph phaseSpec) (*phaseResult, error) {
	due := poisson(ph.rate, ph.dur, ph.seed)
	b := s.w.batch
	stmts, err := src.take(len(due) * b)
	if err != nil {
		return nil, err
	}
	res := &phaseResult{
		name:    ph.name,
		sent:    len(due),
		rate:    ph.rate,
		dur:     ph.dur,
		due:     due,
		lat:     make([]int64, len(due)),
		late:    make([]int64, len(due)),
		classes: make([]int32, len(stmts)),
		vers:    make([]int32, len(due)),
		stmts:   stmts,
	}
	var failed atomic.Int64
	var errMu sync.Mutex

	// Sized to the number of sends so the generator never blocks: an
	// open loop must not wait for the system it measures.
	work := make(chan int, len(due))
	workers := 64
	if b > 1 {
		workers = 16
	}
	var base time.Time
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var probs []float64
			for i := range work {
				st := stmts[i*b : (i+1)*b]
				rctx := ctx
				if ph.trace {
					rctx = withRequestID(ctx, ph.name, i)
				}
				t0 := time.Since(base)
				var err error
				if b == 1 {
					var pr client.Prediction
					pr, probs, err = s.main.PredictInto(rctx, s.w.model, st[0], probs)
					if err == nil {
						res.classes[i] = int32(pr.Class)
						res.vers[i] = int32(pr.Version)
					}
				} else {
					var prs []client.Prediction
					prs, err = s.main.PredictBatch(rctx, s.w.model, st)
					if err == nil {
						for j, pr := range prs {
							res.classes[i*b+j] = int32(pr.Class)
						}
						res.vers[i] = int32(prs[0].Version)
					}
				}
				t1 := time.Since(base)
				if err != nil {
					failed.Add(1)
					res.lat[i] = -1
					errMu.Lock()
					if len(res.errs) < 8 {
						res.errs = append(res.errs, err.Error())
					}
					errMu.Unlock()
					continue
				}
				res.lat[i] = int64(t1) - due[i]
				if ph.trace {
					s.tr.call(ph.name, i, st[0], due[i], int64(t0), int64(t1), base)
				}
			}
		}()
	}

	pace, err := newPacer()
	if err != nil {
		close(work)
		wg.Wait()
		return nil, err
	}
	defer pace.close()
	runtime.GC() // the previous phase's garbage is not this phase's cost
	before := sample(s)
	base = time.Now().Add(time.Millisecond)
	// Steal sampler: the hypervisor's stolen CPU time per window, until
	// the last request has been handed out.
	nwin, win := windows(ph.rate, ph.dur)
	stolen := make(chan []float64, 1)
	dispatched := make(chan struct{})
	go func() {
		steal := make([]float64, nwin)
		prev, _ := stealTicks()
		for k := range steal {
			t := time.NewTimer(time.Until(base.Add(time.Duration(int64(k+1) * win))))
			select {
			case <-t.C:
			case <-dispatched:
				t.Stop()
			}
			cur, _ := stealTicks()
			steal[k], prev = cur-prev, cur
			select {
			case <-dispatched:
				stolen <- steal
				return
			default:
			}
		}
		stolen <- steal
	}()
	sent := len(due)
dispatch:
	for i, d := range due {
		select {
		case <-ph.until:
			sent = i
			break dispatch
		default:
		}
		for {
			wait := d - int64(time.Since(base))
			if wait <= 0 {
				break
			}
			if err := pace.sleep(wait); err != nil {
				close(work)
				close(dispatched)
				wg.Wait()
				<-stolen
				return nil, err
			}
		}
		res.late[i] = int64(time.Since(base)) - d
		work <- i
	}
	res.ran = time.Since(base)
	close(work)
	close(dispatched)
	wg.Wait()
	res.winSteal = <-stolen
	if sent < len(due) {
		src.next -= (len(due) - sent) * b // hand the unsent statements back
		res.sent, res.due, res.lat, res.late = sent, due[:sent], res.lat[:sent], res.late[:sent]
		res.vers, res.classes, res.stmts = res.vers[:sent], res.classes[:sent*b], stmts[:sent*b]
	}
	res.res = sample(s).minus(before)
	res.failed = int(failed.Load())
	return res, nil
}

// pacer sleeps on a timerfd(2) read through Go's network poller.
type pacer struct {
	fd  uintptr
	f   *os.File
	buf [8]byte
}

func newPacer() (*pacer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	// A non-blocking descriptor becomes a pollable *os.File.
	return &pacer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// sleep parks the calling goroutine for about ns nanoseconds.
func (p *pacer) sleep(ns int64) error {
	spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(ns)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	_, err := p.f.Read(p.buf[:])
	return err
}

func (p *pacer) close() { p.f.Close() }

// feedbackResult is what the feedback stream measured.
type feedbackResult struct {
	sent   int
	failed int
	lat    []int64 // per Feedback call, ns
	learnS float64 // first feedback sent → pipeline decided every window
	errs   []string
}

// feedback streams drifted ground-truth records from one sender
// through the workload's transport, then waits until the online
// pipeline has decided every 32-record window. learn_s ends when the
// last decision is durable in the store (the store wrapper sees it
// without polling); the pipeline's own OnlineStats.Windows is then
// required to agree.
func feedback(ctx context.Context, s *stack, stmts []string, class int, timeout time.Duration) (*feedbackResult, error) {
	before := len(s.store.decisions())
	want := before + len(stmts)/onlineWindow
	fr := &feedbackResult{sent: len(stmts), lat: make([]int64, 0, len(stmts))}
	start := time.Now()
	for _, stmt := range stmts {
		t0 := time.Now()
		if err := s.main.Feedback(ctx, s.w.model, stmt, class, 0); err != nil {
			fr.failed++
			if len(fr.errs) < 8 {
				fr.errs = append(fr.errs, err.Error())
			}
			continue
		}
		fr.lat = append(fr.lat, int64(time.Since(t0)))
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		at := s.store.decisions()
		if len(at) >= want {
			fr.learnS = at[want-1].Sub(start).Seconds()
			break
		}
		select {
		case <-s.store.notify:
		case <-timer.C:
			return nil, fmt.Errorf("online pipeline decided %d of %d windows within %s", len(at)-before, want-before, timeout)
		}
	}
	for i := 0; ; i++ {
		st, err := s.svc.StatsSnapshot(s.w.model)
		if err != nil {
			return nil, err
		}
		if st.Online != nil && st.Online.Windows >= uint64(want) {
			return fr, nil
		}
		if i == 1000 {
			return nil, fmt.Errorf("store holds %d decisions but the pipeline reports %d windows", want, st.Online.Windows)
		}
		time.Sleep(time.Millisecond)
	}
}
