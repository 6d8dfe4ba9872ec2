// Command perfbench is the repository's benchmark of the prediction
// service. One run starts a service.Service behind real loopback
// listeners (the binary wire protocol and HTTP/JSON), drives it through
// repro/client with an open-loop arrival schedule, checks every answer
// it can against direct core calls, and prints one JSON result line.
//
//	perfbench --workload wire-ccnn --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the same traffic runs with every layer boundary wrapped in
// spans and the result carries the per-layer metrics instead. See
// README.md in this directory for the workloads, the arrival schedule
// and the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line the benchmark contract asks for.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run's command line.
type config struct {
	workload workloadSpec
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root: every file the run writes lives under root/.bench_build
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "seed for the generated request stream and feedback")
	seconds := flag.Float64("seconds", 25, "measured seconds of traffic per run (split across the phases)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	calibrate := flag.Bool("calibrate", false, "measure closed-loop capacity of the workload's request path instead of running it")
	flag.Parse()

	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q (want %s)\n", *name, workloadNames())
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	cfg := config{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, root: root}

	// Hard stop well inside the contract's 180 s: a hung server must
	// fail the run, never stall it.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded 170s; aborting")
		os.Exit(1)
	})
	defer watchdog.Stop()

	if *calibrate {
		if err := runCalibrate(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	res, rec, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := writeRecord(cfg, rec, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// record is everything a run knows beyond the result line: the machine
// fingerprint, sample counts, check outcomes and notes. It is printed
// on stdout before the result and kept under .bench_build/records.
type record struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Trace    bool           `json:"trace"`
	Seconds  float64        `json:"seconds"`
	Machine  fingerprint    `json:"machine"`
	Samples  map[string]int `json:"samples"`
	// Windows lists, per phase, every latency window as
	// [stolen ticks, requests, p50 µs, p99 µs].
	Windows map[string][][4]float64 `json:"windows"`
	// Latency holds each phase's windowed p50 and p99 ("p50.light",
	// ...), the Feedback calls' p99 ("feedback.p99"), in ms, and
	// "learn_s". Too noisy on a shared 2-vCPU VM to bound, they are
	// recorded with every run and reported by the traced run.
	Latency map[string]float64 `json:"latency"`
	Checks  map[string]string  `json:"checks"`
	Rates   map[string]float64 `json:"rates_per_s"`
	// Gen describes the load itself: requests sent, the share of sent
	// statements already seen earlier in the run, and the generator's
	// hand-off lateness (p99, ms) in each phase.
	Gen       map[string]float64 `json:"gen"`
	Failures  []string           `json:"failures,omitempty"`
	Online    *onlineCounts      `json:"online,omitempty"`
	SpansFile string             `json:"spans_file,omitempty"`
	// Setups lists every set-up's seconds and the GC cycles it ran.
	Setups      [][2]float64 `json:"setups"`
	WallSeconds float64      `json:"wall_seconds"`
	// StealShare is the share of the machine's CPU time stolen by the
	// hypervisor while the run's traffic ran (from /proc/stat).
	StealShare float64 `json:"steal_share"`
}

// writeRecord prints the run record and stores it, with the result,
// under .bench_build/records.
func writeRecord(cfg config, rec *record, res *result) error {
	body, err := json.Marshal(struct {
		Record *record `json:"record"`
		Result *result `json:"result"`
	}{rec, res})
	if err != nil {
		return err
	}
	fmt.Println(string(body))
	dir := filepath.Join(cfg.root, ".bench_build", "records")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if cfg.trace {
		mode = "trace"
	}
	file := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", cfg.workload.name, cfg.seed, mode))
	return os.WriteFile(file, append(body, '\n'), 0o644)
}
