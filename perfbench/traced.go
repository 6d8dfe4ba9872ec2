package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// tracedPhases is the traced run. Each load phase runs twice: first
// untraced, then with spans recorded, so the run can report both the
// per-layer budget and what the tracing itself cost. The drift phase
// and a probe pass over both transports are traced; the direct layer
// calls close the run.
func (rs *runState) tracedPhases(durs []phaseSpec, fail func(string, ...any)) (map[string]metric, error) {
	s, tr, w := rs.s, rs.s.tr, rs.cfg.workload
	out := map[string]metric{}
	put := func(name, unit string, v float64) { out[name] = metric{v, unit} }
	mainKind, otherKind := layerWire, layerHTTP
	if w.http {
		mainKind, otherKind = layerHTTP, layerWire
	}
	var spans []span
	untraced := map[string]*phaseResult{}
	var sent, seen float64
	for _, ph := range durs {
		traced := ph.name == "drift" || strings.HasSuffix(ph.name, "-traced")
		base := strings.TrimSuffix(ph.name, "-traced")
		tr.reset()
		tr.on.Store(traced)
		p, fb, err := rs.phase(ph, ph.name == "drift", traced, fail)
		tr.on.Store(false)
		if err != nil {
			return nil, err
		}
		sent += float64(p.sent)
		seen += p.res.traced.wirePredicts + p.res.traced.httpPredicts
		switch {
		case !traced:
			untraced[base] = p
			for _, q := range []float64{0.5, 0.99} {
				v, _ := p.windowed(q)
				put(fmt.Sprintf("p%.0f_ms.%s", q*100, base), "ms", v/1e6)
			}
			if base == "heavy" {
				// Runtime and serving-pool counts come from the untraced
				// heavy phase, so span recording cannot inflate them.
				stmts := float64(max(p.okStmts(w.batch), 1))
				put("runtime.allocs_per_stmt", "count", p.res.allocs/stmts)
				put("runtime.gc_cpu_share", "ratio", p.res.gcCPU/max(p.res.totalCPU, 1e-9))
				put("gen.late_p99_ms", "ms", quantile(p.late, 0.99)/1e6)
				put("serve.eff_batch", "count", p.res.widthSum/max(p.res.widthN, 1))
				put("serve.batches_per_stmt", "ratio", p.res.batches/max(p.res.completed, 1))
				put("serve.rejected", "count", p.res.rejected)
				put("serve.canceled", "count", p.res.canceled)
				put("serve.panics", "count", p.res.panics)
			}
		case ph.name == "drift":
			at := s.store.decisions()
			var gaps []float64
			for i := 1; i < len(at); i++ {
				gaps = append(gaps, float64(at[i].Sub(at[i-1])))
			}
			put("online.decide_ms_per_window", "ms", medianFloat(gaps)/1e6)
			put("feedback_p99_ms", "ms", quantile(fb.lat, 0.99)/1e6)
			put("learn_s", "s", fb.learnS)
		default:
			bds := tr.analyze(ph.name, mainKind, 2000, &spans)
			if len(bds) == 0 {
				return nil, fmt.Errorf("%s: no request could be traced through every layer", ph.name)
			}
			rs.rec.Samples["traced-"+base] = len(bds)
			layerBudget(bds, base, put)
			tp50, _ := p.windowed(0.5)
			up50, _ := untraced[base].windowed(0.5)
			put("trace.overhead_p50_ms."+base, "ms", (tp50-up50)/1e6)
			if base == "heavy" {
				transportMetrics(mainKind, tr.serverSpans(mainKind), p.res.traced, put)
			}
		}
	}
	put("client.attempts_per_req", "ratio", seen/max(sent, 1))

	// The transport this workload does not load is measured on the
	// probe pass, which crosses both.
	tr.reset()
	before := tr.counters()
	tr.on.Store(true)
	rs.probeCheck(fail)
	tr.on.Store(false)
	transportMetrics(otherKind, tr.serverSpans(otherKind), tr.counters().minus(before), put)

	puts, bytes, putDurs := s.store.storeStats()
	put("store.put_ms.p50", "ms", quantile(putDurs, 0.5)/1e6)
	put("store.puts", "count", float64(puts))
	put("store.bytes", "bytes", float64(bytes))

	snap, err := s.svc.VersionModel(w.model, s.version)
	if err != nil {
		return nil, err
	}
	direct, err := directLayers(snap, rs.src.stmts[len(rs.drift):], driftItems(rs.drift), s.dir)
	if err != nil {
		return nil, err
	}
	units := map[string]string{
		"artifact.encode_ms": "ms", "artifact.decode_ms": "ms", "core.predict_us": "us",
		"core.batch_us_per_stmt": "us", "sqllex.encode_us": "us", "core.finetune_ms_per_window": "ms",
		"f64.flops_per_stmt": "flop", "f64.bytes_per_stmt": "bytes", "nn.forward_batch_us": "us",
		"f64.gemms_gflops": "GFLOP/s", "f64.gemmsw_gflops": "GFLOP/s", "f64.tanhv_ns_per_elem": "ns",
		"f64.expv_ns_per_elem": "ns", "ingest.append_us.p99": "us",
	}
	for k, v := range direct {
		put(k, units[k], v)
	}

	dir := filepath.Join(rs.cfg.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	file := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", w.name, rs.cfg.seed))
	if err := writeSpans(file, spans); err != nil {
		return nil, err
	}
	rs.rec.SpansFile = file
	return out, nil
}

// layerBudget reports each layer's median self time and its share of
// the client-observed median latency.
func layerBudget(bds []breakdown, phase string, put func(string, string, float64)) {
	pick := func(f func(breakdown) int64) float64 {
		v := make([]int64, len(bds))
		for i, b := range bds {
			v[i] = f(b)
		}
		return quantile(v, 0.5)
	}
	total := pick(func(b breakdown) int64 { return b.total })
	layers := []struct {
		name string
		f    func(breakdown) int64
	}{
		{"gen", func(b breakdown) int64 { return b.gen }},
		{"client", func(b breakdown) int64 { return b.client }},
		{"serve_wait", func(b breakdown) int64 { return b.serveWait }},
		{"forward", func(b breakdown) int64 { return b.forward }},
	}
	for _, l := range layers {
		self := pick(l.f)
		put("trace.self_us."+l.name+"."+phase, "us", self/1e3)
		put("trace.share."+l.name+"."+phase, "ratio", self/max(total, 1))
	}
	put("trace.client_p50_us."+phase, "us", total/1e3)
}

// transportMetrics reports one transport's server-side span
// percentiles and its per-request socket calls and bytes.
func transportMetrics(kind layerKind, spans []int64, c tracerCounters, put func(string, string, float64)) {
	if kind == layerWire {
		put("wire.server_us.p50", "us", quantile(spans, 0.5)/1e3)
		put("wire.server_us.p99", "us", quantile(spans, 0.99)/1e3)
		put("wire.syscalls_per_req", "count", c.wireCalls/max(c.wirePredicts, 1))
		put("wire.bytes_per_req", "bytes", c.wireBytes/max(c.wirePredicts, 1))
		return
	}
	put("http.handler_us.p50", "us", quantile(spans, 0.5)/1e3)
	put("http.handler_us.p99", "us", quantile(spans, 0.99)/1e3)
	put("http.syscalls_per_req", "count", c.httpCalls/max(c.httpPredicts, 1))
	put("http.bytes_per_req", "bytes", c.httpBytes/max(c.httpPredicts, 1))
}
