package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/simdb"
	"repro/internal/synth"
	"repro/internal/workload"
)

const (
	// setups is how many times a run sets the service up; setup_s is
	// their median and the last one serves the traffic.
	setups = 9
	// driftClass is the error class every drifted feedback record
	// reports (the online example's drift).
	driftClass = 2
)

// onlineCounts are the pipeline's decision counts after the drift.
type onlineCounts struct {
	Windows    uint64 `json:"windows"`
	Candidates uint64 `json:"candidates"`
	Swaps      uint64 `json:"swaps"`
	Rejected   uint64 `json:"rejected"`
	Rollbacks  uint64 `json:"rollbacks"`
}

// runState carries one run's inputs and running totals.
type runState struct {
	cfg    config
	s      *stack
	src    *stream
	probes []string
	drift  []string
	dm     *directModels
	rec    *record
	ctx    context.Context

	attempted, failed int64
	phaseSeed         int64
}

func run(cfg config) (*result, *record, error) {
	w := cfg.workload
	wallStart := time.Now()
	work := filepath.Join(cfg.root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.RemoveAll(work); err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(work)

	rec := &record{
		Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds,
		Samples: map[string]int{}, Checks: map[string]string{}, Windows: map[string][][4]float64{},
		Gen: map[string]float64{}, Latency: map[string]float64{},
		Rates: map[string]float64{"light": w.light, "heavy": w.heavy},
	}

	// Inputs: the fixed training set and probe statements, and the
	// seeded request stream and drifted feedback.
	env := experiments.NewEnv(experiments.SmallScale())
	ts := trainSet{items: env.SDSSSplit.Train, cfg: env.Scale.Cfg}
	probes := workload.Statements(env.SDSSSplit.Test)
	durs := phaseDurations(cfg)
	need := w.windows * onlineWindow
	for _, ph := range durs {
		need += int(ph.rate*ph.dur.Seconds()*1.25+64) * w.batch
	}
	src := generateStream(cfg.seed, need)
	drift, err := src.take(w.windows * onlineWindow)
	if err != nil {
		return nil, nil, err
	}

	// rss_mb is the peak RSS the service added on top of the benchmark's
	// own inputs: the input generator's garbage is returned to the OS and
	// the kernel's peak mark reset before the first setup.
	runtime.GC()
	debug.FreeOSMemory()
	rssBase, _ := rssKiB()
	if err := resetPeakRSS(); err != nil {
		return nil, nil, fmt.Errorf("reset peak RSS: %w", err)
	}

	ctx := context.Background()
	rs := &runState{cfg: cfg, src: src, probes: probes, drift: drift, rec: rec, ctx: ctx, phaseSeed: cfg.seed * 64}
	baseline := runtime.NumGoroutine()

	// Set up several times; setup_s is the median. The last one stays.
	var setupS, bootS, trainS, trainRate []float64
	for i := 0; i < setups; i++ {
		var tr *tracer
		if cfg.trace {
			tr = newTracer()
		}
		runtime.GC() // start every setup from the same clean heap
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		gc0 := ms.NumGC
		s, err := setup(ctx, w, ts, filepath.Join(work, fmt.Sprintf("setup%d", i)), tr, probes)
		if err != nil {
			return nil, nil, err
		}
		setupS = append(setupS, s.setupS)
		runtime.ReadMemStats(&ms)
		rec.Setups = append(rec.Setups, [2]float64{s.setupS, float64(ms.NumGC - gc0)})
		trainS = append(trainS, s.trainS)
		bootS = append(bootS, s.setupS-s.trainS)
		trainRate = append(trainRate, float64(s.trainN)/s.trainS)
		if i < setups-1 {
			if err := s.close(); err != nil {
				return nil, nil, fmt.Errorf("teardown: %w", err)
			}
			continue
		}
		rs.s = s
	}
	s := rs.s
	rec.Machine = machineFingerprint(cfg.root, filepath.Join(work, fmt.Sprintf("setup%d", setups-1), "store"))
	rs.dm = &directModels{s: s, m: map[int32]*core.Model{}}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	fail := func(format string, args ...any) {
		res.Correct = false
		rec.Failures = append(rec.Failures, fmt.Sprintf(format, args...))
	}

	var layers map[string]metric
	var cpuPhase *phaseResult
	steal0, total0 := stealTicks()
	if cfg.trace {
		layers, err = rs.tracedPhases(durs, fail)
	} else {
		cpuPhase, err = rs.untracedPhases(durs, fail)
	}
	if err != nil {
		s.close()
		return nil, nil, err
	}
	_, rssPeak := rssKiB()
	steal1, total1 := stealTicks()
	rec.StealShare = (steal1 - steal0) / max(total1-total0, 1)

	// Output checks that need the live service: online decisions.
	oc, err := onlineDecisions(s)
	if err != nil {
		s.close()
		return nil, nil, err
	}
	rec.Online = &oc
	if err := checkOnline(cfg, oc); err != nil {
		fail("online decisions: %v", err)
	}
	records := float64(s.wal.Stats().Appended)

	if err := s.close(); err != nil {
		fail("teardown: %v", err)
	}
	leaked := leakCheck(baseline)
	rec.Checks["goroutines_leaked"] = fmt.Sprint(leaked)
	if leaked != 0 {
		fail("%d goroutines still running after teardown", leaked)
	}

	if cfg.trace {
		res.Metrics = layers
		put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
		put("setup.train_s", "s", medianFloat(trainS))
		put("setup.boot_s", "s", medianFloat(bootS))
		put("core.train_examples_per_s", "1/s", medianFloat(trainRate))
		put("online.windows", "count", float64(oc.Windows))
		put("online.candidates", "count", float64(oc.Candidates))
		put("online.swaps", "count", float64(oc.Swaps))
		put("online.rejected", "count", float64(oc.Rejected))
		put("online.rollbacks", "count", float64(oc.Rollbacks))
		put("ingest.records", "count", records)
		put("runtime.goroutines_leaked", "count", float64(leaked))
		put("gen.repeat_share", "ratio", src.repeatShare())
		put("gen.sent", "count", float64(src.sent))
		put("error_rate", "ratio", float64(rs.failed)/float64(max(rs.attempted, 1)))
	} else {
		// The bounded end-to-end metrics are the CPU cost of a predicted
		// statement, the memory the service adds and the set-up time.
		// Latencies and learning time go to rec.Latency unbounded: over
		// ten runs on a shared 2-vCPU VM their spread between quartiles
		// reached 0.2 to 0.7 of their median as hypervisor steal came
		// and went.
		stmts := float64(max(cpuPhase.okStmts(w.batch), 1))
		res.Metrics = map[string]metric{
			"cpu_us_per_stmt": {float64(cpuPhase.res.cpu) / 1e3 / stmts, "us"},
			"setup_s":         {medianFloat(setupS), "s"},
			"rss_mb":          {(rssPeak - rssBase) / 1024, "MB"},
		}
	}
	rec.Gen["sent"] = float64(src.sent)
	rec.Gen["repeat_share"] = src.repeatShare()
	res.Attempted = rs.attempted
	res.Failed = rs.failed
	rec.WallSeconds = time.Since(wallStart).Seconds()
	return res, rec, nil
}

// phaseDurations splits --seconds across the phases of a run.
func phaseDurations(cfg config) []phaseSpec {
	w := cfg.workload
	sec := func(f float64) time.Duration { return time.Duration(f * cfg.seconds * float64(time.Second)) }
	if cfg.trace {
		return []phaseSpec{
			{name: "light", rate: w.light, dur: sec(0.15)}, {name: "light-traced", rate: w.light, dur: sec(0.2)},
			{name: "heavy", rate: w.heavy, dur: sec(0.15)}, {name: "heavy-traced", rate: w.heavy, dur: sec(0.2)},
			{name: "drift", rate: w.light, dur: sec(0.3)},
		}
	}
	if w.driftInLight {
		// The light phase ends when learning does; the heavy phase then
		// takes the rest of the run (at most 65% when light runs out).
		return []phaseSpec{{name: "light", rate: w.light, dur: sec(0.35)}, {name: "heavy", rate: w.heavy, dur: sec(0.65)}}
	}
	return []phaseSpec{
		{name: "light", rate: w.light, dur: sec(0.35)}, {name: "heavy", rate: w.heavy, dur: sec(0.35)},
		{name: "drift", rate: w.light, dur: sec(0.3)},
	}
}

// untracedPhases runs light, heavy and drift traffic with nothing
// wrapped and returns the phase cpu_us_per_stmt is taken in.
func (rs *runState) untracedPhases(durs []phaseSpec, fail func(string, ...any)) (*phaseResult, error) {
	w := rs.cfg.workload
	var cpu *phaseResult
	var ran time.Duration
	for _, ph := range durs {
		withDrift := ph.name == "drift" || (ph.name == "light" && w.driftInLight)
		if w.driftInLight && ph.name == "heavy" {
			ph.dur = time.Duration(rs.cfg.seconds*float64(time.Second)) - ran
		}
		p, _, err := rs.phase(ph, withDrift, false, fail)
		if err != nil {
			return nil, err
		}
		ran += p.ran
		if ph.name == w.cpuPhase() {
			cpu = p
		}
		if ph.name == "heavy" {
			rs.probeCheck(fail)
		}
	}
	rs.probeCheck(fail)
	return cpu, nil
}

// phase runs one open-loop phase, with the feedback stream alongside
// when withDrift is set, and checks its outputs.
func (rs *runState) phase(ph phaseSpec, withDrift, traced bool, fail func(string, ...any)) (*phaseResult, *feedbackResult, error) {
	rs.phaseSeed++
	spec := ph
	spec.trace, spec.seed = traced, rs.phaseSeed
	var fb *feedbackResult
	var fbErr error
	var wg sync.WaitGroup
	if withDrift {
		learned := make(chan struct{})
		if ph.name == "light" {
			// Stop when learning does, so all of this phase's
			// latencies are reads alongside writes.
			spec.until = learned
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(learned)
			fb, fbErr = feedback(rs.ctx, rs.s, rs.drift, driftClass, 60*time.Second)
		}()
	}
	p, err := drive(rs.ctx, rs.s, rs.src, spec)
	wg.Wait()
	if err != nil {
		return nil, nil, err
	}
	if fbErr != nil {
		return nil, nil, fbErr
	}
	rs.src.sent += p.sent
	rs.attempted += int64(p.sent)
	rs.failed += int64(p.failed)
	rs.rec.Samples[ph.name] = p.sent - p.failed
	_, windows := p.windowed(0.5)
	rs.rec.Samples[ph.name+"-windows"] = windows
	rs.rec.Samples[ph.name+"-gc-cycles"] = int(p.res.gcCycles)
	rs.rec.Windows[ph.name] = p.windowTable()
	rs.rec.Gen["late_p99_ms."+ph.name] = quantile(p.late, 0.99) / 1e6
	for _, q := range []float64{0.5, 0.99} {
		v, _ := p.windowed(q)
		rs.rec.Latency[fmt.Sprintf("p%.0f.%s", q*100, ph.name)] = v / 1e6
	}
	for _, e := range p.errs {
		rs.rec.Failures = append(rs.rec.Failures, ph.name+": "+e)
	}
	if fb != nil {
		rs.attempted += int64(fb.sent)
		rs.failed += int64(fb.failed)
		rs.rec.Samples["feedback"] = len(fb.lat)
		rs.rec.Latency["feedback.p99"] = quantile(fb.lat, 0.99) / 1e6
		rs.rec.Latency["learn_s"] = fb.learnS
		for _, e := range fb.errs {
			rs.rec.Failures = append(rs.rec.Failures, "feedback: "+e)
		}
	}
	if err := rs.dm.checkLoad(p, rs.cfg.workload.batch); err != nil {
		fail("%s outputs: %v", ph.name, err)
	}
	rs.rec.Checks[ph.name] = "ok"
	return p, fb, nil
}

// probeCheck sends the fixed probe statements through both transports,
// singly and in batches of 16, and requires every answer to be
// bit-identical to core.Model.ProbsInto on the snapshot that served it.
func (rs *runState) probeCheck(fail func(string, ...any)) {
	s := rs.s
	n, bad := 0, 0
	for _, c := range []*client.Client{s.main, s.other} {
		for _, p := range rs.probes {
			n++
			pr, err := c.Predict(rs.ctx, s.w.model, p)
			if err != nil {
				bad++
				rs.rec.Failures = append(rs.rec.Failures, "probe: "+err.Error())
				continue
			}
			if err := rs.dm.same(pr, p); err != nil {
				fail("probe %q: %v", p, err)
			}
		}
		for i := 0; i+16 <= len(rs.probes); i += 16 {
			n++
			chunk := rs.probes[i : i+16]
			prs, err := c.PredictBatch(rs.ctx, s.w.model, chunk)
			if err != nil {
				bad++
				rs.rec.Failures = append(rs.rec.Failures, "probe batch: "+err.Error())
				continue
			}
			for j, pr := range prs {
				if err := rs.dm.same(pr, chunk[j]); err != nil {
					fail("batch probe %q: %v", chunk[j], err)
				}
			}
		}
	}
	rs.attempted += int64(n)
	rs.failed += int64(bad)
	rs.rec.Checks["probes"] = fmt.Sprintf("%d requests, %d failed", n, bad)
}

// generateStream builds the request stream from the SDSS generator's
// raw query log, where popular statements and bot templates repeat as
// they do in the real log. Two generators with seeds derived from the
// run's seed fill the two halves concurrently.
func generateStream(seed int64, need int) *stream {
	const parts = 2
	chunks := make([][]string, parts)
	var wg sync.WaitGroup
	for k := range chunks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			want := need/parts + 1
			for round := int64(0); len(chunks[k]) < want; round++ {
				sessions := (want-len(chunks[k]))/2 + 64
				g := synth.NewSDSS(synth.SDSSConfig{Sessions: sessions, HitsPerSessionMax: 3,
					Seed: seed*1000 + int64(k)*100 + round})
				for _, e := range g.GenerateLog() {
					chunks[k] = append(chunks[k], e.Statement)
				}
			}
		}()
	}
	wg.Wait()
	src := &stream{}
	for _, c := range chunks {
		src.stmts = append(src.stmts, c...)
	}
	src.stmts = src.stmts[:need]
	return src
}

// directModels caches one private replica per served version, the
// reference every transport's answer is compared against.
type directModels struct {
	s *stack
	m map[int32]*core.Model
	p []float64
}

func (d *directModels) get(v int32) (*core.Model, error) {
	if m, ok := d.m[v]; ok {
		return m, nil
	}
	vm, err := d.s.svc.VersionModel(d.s.w.model, int(v))
	if err != nil {
		return nil, err
	}
	m := vm.Replicate()
	d.m[v] = m
	return m, nil
}

// same checks one served prediction against the direct call.
func (d *directModels) same(pr client.Prediction, stmt string) error {
	m, err := d.get(int32(pr.Version))
	if err != nil {
		return err
	}
	d.p = m.ProbsInto(stmt, d.p)
	if len(pr.Probs) != len(d.p) {
		return fmt.Errorf("%d probabilities, direct call gives %d", len(pr.Probs), len(d.p))
	}
	for i := range d.p {
		if math.Float64bits(pr.Probs[i]) != math.Float64bits(d.p[i]) {
			return fmt.Errorf("probability %d is %v, direct call gives %v", i, pr.Probs[i], d.p[i])
		}
	}
	if pr.Class != argmax(d.p) {
		return fmt.Errorf("class %d, direct call gives %d", pr.Class, argmax(d.p))
	}
	return nil
}

// checkLoad compares a deterministic sample of a phase's answers (the
// class of every statement of every 8th request, or every 32nd for
// batches) with the direct call on the version that answered.
func (d *directModels) checkLoad(p *phaseResult, batch int) error {
	every := 8
	if batch > 1 {
		every = 32
	}
	for i := 0; i < p.sent; i += every {
		if p.lat[i] < 0 {
			continue
		}
		m, err := d.get(p.vers[i])
		if err != nil {
			return err
		}
		for j := 0; j < batch; j++ {
			stmt := p.stmts[i*batch+j]
			d.p = m.ProbsInto(stmt, d.p)
			if got, want := p.classes[i*batch+j], argmax(d.p); int(got) != want {
				return fmt.Errorf("request %d statement %d: class %d, direct call on v%d gives %d", i, j, got, p.vers[i], want)
			}
		}
	}
	return nil
}

// argmax is the service's class rule: the first index of the largest
// probability.
func argmax(p []float64) int {
	best := 0
	for c := range p {
		if p[c] > p[best] {
			best = c
		}
	}
	return best
}

// onlineDecisions reads the pipeline's counters.
func onlineDecisions(s *stack) (onlineCounts, error) {
	st, err := s.svc.StatsSnapshot(s.w.model)
	if err != nil {
		return onlineCounts{}, err
	}
	if st.Online == nil {
		return onlineCounts{}, errors.New("service reports no online pipeline")
	}
	o := st.Online
	return onlineCounts{o.Windows, o.Candidates, o.Swaps, o.Rejected, o.Rollbacks}, nil
}

// checkOnline requires the decision counts to add up and to equal the
// previous run's with the same workload and seed, which it then records.
func checkOnline(cfg config, oc onlineCounts) error {
	w := cfg.workload
	if oc.Windows != uint64(w.windows) {
		return fmt.Errorf("%d windows decided, %d fed", oc.Windows, w.windows)
	}
	if oc.Candidates+oc.Rollbacks != oc.Windows || oc.Swaps+oc.Rejected != oc.Candidates {
		return fmt.Errorf("counts do not add up: %+v", oc)
	}
	dir := filepath.Join(cfg.root, ".bench_build", "online")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	file := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed))
	if prev, err := os.ReadFile(file); err == nil {
		var want onlineCounts
		if err := json.Unmarshal(prev, &want); err != nil {
			return fmt.Errorf("previous run's counts: %w", err)
		}
		if want != oc {
			return fmt.Errorf("decisions %+v differ from the previous run's %+v with the same seed", oc, want)
		}
		return nil
	}
	data, err := json.Marshal(oc)
	if err != nil {
		return err
	}
	return os.WriteFile(file, data, 0o644)
}

// leakCheck waits up to 5 s for the goroutine count to return to its
// value before setup and returns the difference.
func leakCheck(baseline int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline || time.Now().After(deadline) {
			return n - baseline
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// repeatShare is the share of sent statements that already appeared
// earlier in the run.
func (s *stream) repeatShare() float64 {
	seen := make(map[string]struct{}, s.next)
	rep := 0
	for _, st := range s.stmts[:s.next] {
		if _, ok := seen[st]; ok {
			rep++
		}
		seen[st] = struct{}{}
	}
	return float64(rep) / float64(max(s.next, 1))
}

// driftItems turns the drifted feedback into the windows the pipeline
// sees, for the direct fine-tune measurement.
func driftItems(stmts []string) [][]workload.Item {
	var wins [][]workload.Item
	for i := 0; i+onlineWindow <= len(stmts); i += onlineWindow {
		win := make([]workload.Item, onlineWindow)
		for j := range win {
			win[j] = workload.Item{Statement: stmts[i+j], ErrorClass: simdb.ErrorClass(driftClass)}
		}
		wins = append(wins, win)
	}
	return wins
}
