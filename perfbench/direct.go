package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/f64"
	"repro/internal/ingest"
	"repro/internal/nn"
	"repro/internal/sqllex"
	"repro/internal/workload"
)

// Direct calls into core, sqllex, nn, f64, artifact and ingest, at the
// served model's shapes and on the workload's own statements. Each
// timing is the median of reps repetitions of a fixed amount of work.

const reps = 5

// timeMedian runs fn reps times and returns the median duration.
func timeMedian(fn func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		start := time.Now()
		fn()
		ds[i] = float64(time.Since(start))
	}
	return time.Duration(medianFloat(ds))
}

// directLayers measures the model-side layers on a copy of the deployed
// snapshot decoded from its artifact (which carries no predict hook, so
// no tracing cost leaks into these numbers).
func directLayers(snap *core.Model, stmts []string, windows [][]workload.Item, scratch string) (map[string]float64, error) {
	out := map[string]float64{}

	data, err := artifact.Encode(snap)
	if err != nil {
		return nil, err
	}
	out["artifact.encode_ms"] = ms(timeMedian(func() { artifact.Encode(snap) }))
	var m *core.Model
	out["artifact.decode_ms"] = ms(timeMedian(func() { m, err = artifact.Decode(data) }))
	if err != nil {
		return nil, err
	}
	st, err := m.ExportState()
	if err != nil {
		return nil, err
	}

	// Enough statements for ~20 ms of forward passes per repetition.
	n := 800
	if st.LSTM != nil {
		n = 160
	}
	n = min(n, len(stmts)/16*16)
	set := stmts[:n]

	var probs []float64
	out["core.predict_us"] = us(timeMedian(func() {
		for _, s := range set {
			probs = m.ProbsInto(s, probs)
		}
	})) / float64(n)
	var rows [][]float64
	out["core.batch_us_per_stmt"] = us(timeMedian(func() {
		for i := 0; i+16 <= len(set); i += 16 {
			rows = m.ProbsBatchInto(set[i:i+16], rows)
		}
	})) / float64(n)

	vocab, err := sqllex.VocabularyFromTokens(st.Vocab)
	if err != nil {
		return nil, err
	}
	enc := sqllex.NewEncoder(vocab, false, st.MaxLen)
	out["sqllex.encode_us"] = us(timeMedian(func() {
		for _, s := range set {
			enc.Encode(s)
		}
	})) / float64(n)
	ids := make([][]int, 16)
	meanLen := 0.0
	for i := range ids {
		ids[i] = append([]int(nil), enc.Encode(set[i])...)
	}
	for _, s := range set {
		meanLen += float64(len(enc.Encode(s)))
	}
	meanLen /= float64(n)

	// The fine-tune the online pipeline runs on one window: the first
	// 24 records (the 8-record holdout is not trained on), one worker.
	tune := core.DefaultConfig()
	tune.Workers = 1
	var ftErr error
	fts := make([]float64, 0, len(windows))
	for _, win := range windows[:min(4, len(windows))] {
		cand := m.Snapshot()
		start := time.Now()
		if _, err := core.FineTune(cand, win[:len(win)-len(win)/4], tune); err != nil {
			ftErr = err
		}
		fts = append(fts, float64(time.Since(start)))
	}
	if ftErr != nil {
		return nil, ftErr
	}
	out["core.finetune_ms_per_window"] = medianFloat(fts) / 1e6

	if err := kernels(st, ids, meanLen, out); err != nil {
		return nil, err
	}

	// Append latency on a scratch WAL with serviced's default options,
	// using the feedback records the workload streams.
	wal, err := ingest.Open(filepath.Join(scratch, "scratch-wal"), ingest.Options{})
	if err != nil {
		return nil, err
	}
	var lat []int64
	for _, win := range windows {
		for _, it := range win {
			start := time.Now()
			if err := wal.Append(ingest.Record{Time: start.UnixNano(), Kind: ingest.Observed, Model: m.Name,
				Statement: it.Statement, Class: int32(it.ErrorClass)}); err != nil {
				wal.Close()
				return nil, err
			}
			lat = append(lat, int64(time.Since(start)))
		}
	}
	if err := wal.Close(); err != nil {
		return nil, err
	}
	out["ingest.append_us.p99"] = quantile(lat, 0.99) / 1e3
	return out, nil
}

// kernels times the network and the f64 kernels at the model's shapes
// and computes its per-statement operation and byte counts.
func kernels(st *core.SnapshotState, ids [][]int, meanLen float64, out map[string]float64) error {
	rng := rand.New(rand.NewSource(1))
	var bm nn.BatchModel
	// Shapes: E embedding width, H hidden/kernel width (gate rows are
	// 4H for the LSTM), T the sequence budget, classes the output width.
	var E, H, rowsOut, kIn, classes int
	T := st.MaxLen
	var flops, bytes float64
	switch {
	case st.LSTM != nil:
		c := *st.LSTM
		bm = nn.NewLSTM(c, rng)
		E, H, classes = c.Embed, c.Hidden, c.Outputs
		rowsOut, kIn = 4*H, E
		in := E
		for l := 0; l < max(c.Layers, 1); l++ {
			flops += meanLen * (2*float64(4*H*(in+H)) + 10*float64(H))
			bytes += meanLen * 8 * float64(4*H*(in+H))
			in = H
		}
		flops += 2 * float64(H*classes)
		bytes += 8*meanLen*float64(E) + 8*float64(H*classes)
	case st.CNN != nil:
		c := *st.CNN
		bm = nn.NewCNN(c, rng)
		E, H, classes = c.Embed, c.Kernels, c.Outputs
		wmax := 0
		for _, w := range c.Widths {
			wmax = max(wmax, w)
			if pos := meanLen - float64(w) + 1; pos > 0 {
				flops += 2 * pos * float64(w*E*H)
			}
			bytes += 8 * float64(w*E*H)
		}
		rowsOut, kIn = H, wmax*E
		flops += 2 * float64(H*len(c.Widths)*classes)
		bytes += 8*meanLen*float64(E) + 8*float64(H*len(c.Widths)*classes)
	default:
		return fmt.Errorf("model has no neural architecture")
	}
	out["f64.flops_per_stmt"] = flops
	out["f64.bytes_per_stmt"] = bytes
	out["nn.forward_batch_us"] = us(timeMedian(func() {
		for i := 0; i < 10; i++ {
			bm.ForwardBatch(ids)
		}
	})) / 10

	// GemmS at the input-transform shape: T rows of kIn inputs to
	// rowsOut outputs.
	a := randVec(rng, T*kIn)
	b := randVec(rng, kIn*rowsOut)
	c := make([]float64, T*rowsOut)
	const gemmLoops = 200
	d := timeMedian(func() {
		for i := 0; i < gemmLoops; i++ {
			f64.GemmS(c, a, kIn, b, T, rowsOut, kIn)
		}
	})
	out["f64.gemms_gflops"] = 2 * float64(T*rowsOut*kIn) * gemmLoops / float64(d)

	// GemmSW at the batched recurrent-step shape: rowsOut gate rows of
	// H inputs over 16 lanes.
	const lanes = 16
	wa := randVec(rng, rowsOut*H)
	wb := randVec(rng, H*lanes)
	wc := make([]float64, rowsOut*lanes)
	d = timeMedian(func() {
		for i := 0; i < gemmLoops*4; i++ {
			f64.GemmSW(wc, lanes, wa, H, wb, lanes, rowsOut, lanes, H)
		}
	})
	out["f64.gemmsw_gflops"] = 2 * float64(rowsOut*lanes*H) * gemmLoops * 4 / float64(d)

	x := randVec(rng, rowsOut*lanes)
	y := make([]float64, len(x))
	const vecLoops = 2000
	d = timeMedian(func() {
		for i := 0; i < vecLoops; i++ {
			f64.TanhV(y, x)
		}
	})
	out["f64.tanhv_ns_per_elem"] = float64(d) / float64(vecLoops*len(x))
	d = timeMedian(func() {
		for i := 0; i < vecLoops; i++ {
			f64.ExpV(y, x)
		}
	})
	out["f64.expv_ns_per_elem"] = float64(d) / float64(vecLoops*len(x))
	return nil
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()*2 - 1
	}
	return v
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
