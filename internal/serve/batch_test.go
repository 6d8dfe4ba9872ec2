package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestFusedBatchBitIdentical forces wide fused batches (one worker, a
// generous window, a burst of requests) and checks the results are
// bit-identical to direct sequential model calls — the fused n-row
// forward must be indistinguishable from the scalar path — and that
// Stats actually reports fused widths > 1.
func TestFusedBatchBitIdentical(t *testing.T) {
	models := trainedModels(t)
	stmts := testStatements(48)

	cls := models["clstm"]
	wantProbs := make([][]float64, len(stmts))
	for i, s := range stmts {
		wantProbs[i] = cls.Probs(s)
	}
	p := NewPredictor(cls, Options{Replicas: 1, BatchWindow: 5 * time.Millisecond, MaxBatch: 8, QueueSize: 64})
	res, err := predictAll(context.Background(), p, stmts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range stmts {
		for c := range wantProbs[i] {
			if res[i].Probs[c] != wantProbs[i][c] {
				t.Fatalf("fused probs[%d][%d] = %v, want %v", i, c, res[i].Probs[c], wantProbs[i][c])
			}
		}
	}
	s := p.Stats()
	p.Close()
	if s.EffectiveBatch <= 1 {
		t.Fatalf("EffectiveBatch = %v: burst through one windowed worker should fuse", s.EffectiveBatch)
	}
	maxW := 0
	var total uint64
	for _, w := range s.Widths {
		if w.Width > maxW {
			maxW = w.Width
		}
		if w.Count > 0 && (w.P50 <= 0 || w.P99 < w.P50) {
			t.Fatalf("width %d percentiles p50=%v p99=%v", w.Width, w.P50, w.P99)
		}
		total += w.Count
	}
	if maxW < 2 {
		t.Fatalf("max fused width = %d, want >= 2", maxW)
	}
	if total != s.Completed {
		t.Fatalf("width histogram total %d != Completed %d", total, s.Completed)
	}

	reg := models["ccnn-reg"]
	wantLog := make([]float64, len(stmts))
	for i, s := range stmts {
		wantLog[i] = reg.PredictLog(s)
	}
	pr := NewPredictor(reg, Options{Replicas: 1, BatchWindow: 5 * time.Millisecond, MaxBatch: 8, QueueSize: 64})
	defer pr.Close()
	logs, err := predictAll(context.Background(), pr, stmts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range stmts {
		if logs[i].Log != wantLog[i] {
			t.Fatalf("fused log[%d] = %v, want %v", i, logs[i].Log, wantLog[i])
		}
	}
	if s := pr.Stats(); s.EffectiveBatch <= 1 {
		t.Fatalf("regression EffectiveBatch = %v, want > 1", s.EffectiveBatch)
	}
}

// TestFusedMixedWidthsConcurrent hammers windowed workers with single
// statements and batches of several widths at once, so gathered
// batches mix requests from many callers; every result must still
// match the sequential model exactly. Under -race this also exercises
// the fused path's synchronization.
func TestFusedMixedWidthsConcurrent(t *testing.T) {
	m := trainedModels(t)["wlstm"]
	stmts := testStatements(24)
	wantProbs := make([][]float64, len(stmts))
	for i, s := range stmts {
		wantProbs[i] = m.Probs(s)
	}
	p := NewPredictor(m, Options{Replicas: 2, BatchWindow: 2 * time.Millisecond, MaxBatch: 16, QueueSize: 128})
	defer p.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 6; g++ {
		width := 1 + g%3*3 // 1, 4, 7 statements per call
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := make([]Result, width)
			for round := 0; round < 5; round++ {
				for i := 0; i+width <= len(stmts); i += width {
					if err := p.Predict(ctx, stmts[i:i+width], res); err != nil {
						errs <- err.Error()
						return
					}
					for k := range res {
						for c, v := range res[k].Probs {
							if v != wantProbs[i+k][c] {
								errs <- "probs mismatch under mixed fused load"
								return
							}
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
}

// TestFusedPanicFallback checks fault isolation through the fused
// path: a poisoned statement inside a fused group fails ONLY its own
// request (the group re-runs per-request), healthy requests still
// succeed with correct results, and Panics counts exactly the poisoned
// requests.
func TestFusedPanicFallback(t *testing.T) {
	m := trainedModels(t)["clstm"]
	stmts := testStatements(12)
	poison := "POISON :: " + stmts[0]
	want := make([][]float64, len(stmts))
	for i, s := range stmts {
		want[i] = m.Probs(s)
	}
	m.SetPredictHook(func(stmt string) {
		if stmt == poison {
			panic("poisoned statement")
		}
	})
	defer m.SetPredictHook(nil)
	p := NewPredictor(m, Options{Replicas: 1, BatchWindow: 10 * time.Millisecond, MaxBatch: 16, QueueSize: 64, PanicLimit: 100})
	defer p.Close()

	const rounds = 3
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		errs := make(chan string, len(stmts)+1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := predict1(context.Background(), p, poison, nil); !errors.Is(err, ErrPanicked) {
				errs <- "poisoned request should fail with ErrPanicked"
			}
		}()
		for i, s := range stmts {
			wg.Add(1)
			go func(i int, s string) {
				defer wg.Done()
				out, err := predict1(context.Background(), p, s, nil)
				if err != nil {
					errs <- "healthy request failed alongside poison: " + err.Error()
					return
				}
				for c := range out.Probs {
					if out.Probs[c] != want[i][c] {
						errs <- "healthy result corrupted by fused fallback"
						return
					}
				}
			}(i, s)
		}
		wg.Wait()
		select {
		case e := <-errs:
			t.Fatal(e)
		default:
		}
	}
	s := p.Stats()
	if s.Panics != rounds {
		t.Fatalf("Panics = %d, want exactly %d (one per poisoned request)", s.Panics, rounds)
	}
	if wantDone := uint64(rounds * len(stmts)); s.Completed != wantDone {
		t.Fatalf("Completed = %d, want %d", s.Completed, wantDone)
	}
}

// TestFusedBatchAllocFree proves the warm fused serving path is
// 0 allocs/op at a fixed batch width: pooled requests, preallocated
// worker scratch, and capacity-reusing result rows end to end. Each
// burst is one Predict call whose statements one windowed worker
// fuses.
func TestFusedBatchAllocFree(t *testing.T) {
	m := trainedModels(t)["clstm"]
	stmts := testStatements(8)
	p := NewPredictor(m, Options{Replicas: 1, BatchWindow: time.Millisecond, MaxBatch: 8, QueueSize: 64})
	defer p.Close()
	ctx := context.Background()
	res := make([]Result, len(stmts))
	burst := func() {
		if err := p.Predict(ctx, stmts, res); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ { // warm request pool, replica scratch, rows
		burst()
	}
	if raceDetectorEnabled {
		burst() // still exercise the path for the race build
	} else if allocs := testing.AllocsPerRun(30, burst); allocs != 0 {
		t.Errorf("fused batch allocs per burst = %v, want 0", allocs)
	}
	if s := p.Stats(); s.EffectiveBatch <= 1 {
		t.Fatalf("EffectiveBatch = %v: bursts should have fused", s.EffectiveBatch)
	}
}
