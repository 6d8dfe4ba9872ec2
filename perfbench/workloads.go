package main

import "strings"

// workloadSpec is one traffic mix. Every workload runs the same stack (one
// Service on a DirStore with an ingest WAL and an online pipeline,
// served on a wire and an HTTP listener) and the same three kinds of
// traffic: predicts at the light rate, predicts at the heavy rate, and
// a drift stream of ground-truth feedback that the online pipeline
// learns from while predicts continue at the light rate. The fields
// choose the model, the transport and the request shape.
type workloadSpec struct {
	name  string
	model string // model kind, also its registry name
	// http sends predicts and feedback over HTTP/JSON; otherwise over
	// the wire protocol on TCP loopback.
	http bool
	// batch is the number of statements per predict request.
	batch int
	// light and heavy are the open-loop arrival rates in requests per
	// second, fixed against the closed-loop capacity --calibrate
	// measured on a 2-vCPU Xeon (AVX-512, go1.24): light at about 25%,
	// heavy at 60% for http-clstm-batch but at 36% (wire-ccnn) and 48%
	// (online-drift), where 60% left the median latency swinging by
	// more than half between runs on a shared VM.
	light, heavy float64
	// sample is the service's IngestEvery: every Nth successful predict
	// is logged to the WAL (0 = feedback only, serviced's default).
	sample int
	// windows is the number of 32-record feedback windows streamed.
	windows int
	// driftInLight runs the feedback stream inside the light phase, so
	// the light-rate latencies are reads measured alongside writes,
	// fine-tunes and swaps, and cpu_us_per_stmt is taken there.
	// Otherwise the stream runs in its own phase after the heavy one
	// and cpu_us_per_stmt is taken in the heavy phase.
	driftInLight bool
}

// onlineWindow is the feedback window size of the online pipeline.
const onlineWindow = 32

var workloads = []workloadSpec{
	{name: "wire-ccnn", model: "ccnn", batch: 1, light: 7000, heavy: 10500, windows: 128},
	{name: "http-clstm-batch", model: "clstm", http: true, batch: 16, light: 110, heavy: 270, windows: 64},
	{name: "online-drift", model: "clstm", batch: 1, light: 1200, heavy: 2400, sample: 4, windows: 64, driftInLight: true},
}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// cpuPhase names the phase cpu_us_per_stmt is measured in.
func (w workloadSpec) cpuPhase() string {
	if w.driftInLight {
		return "light"
	}
	return "heavy"
}
