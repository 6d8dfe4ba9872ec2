package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// resources is a point-in-time reading of the process and the service
// counters; phases report the difference of two readings.
type resources struct {
	cpu      time.Duration // process user+sys CPU (getrusage)
	allocs   float64       // heap objects allocated (runtime/metrics)
	gcCPU    float64       // GC CPU seconds (runtime/metrics)
	totalCPU float64       // all Go CPU seconds (runtime/metrics)
	gcCycles float64       // completed GC cycles (runtime/metrics)

	// Serving-pool counters of the live deployment (Service.Stats).
	completed, batches         float64
	widthSum, widthN           float64 // Σ width·count and Σ count of the fused-batch histogram
	rejected, canceled, panics float64
	traced                     tracerCounters
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// sample reads the process, runtime and service counters.
func sample(s *stack) resources {
	var r resources
	r.cpu = processCPU()
	ms := make([]metrics.Sample, len(runtimeSamples))
	copy(ms, runtimeSamples)
	metrics.Read(ms)
	r.allocs = float64(ms[0].Value.Uint64())
	r.gcCPU = ms[1].Value.Float64()
	r.totalCPU = ms[2].Value.Float64()
	r.gcCycles = float64(ms[3].Value.Uint64())
	if st, _, err := s.svc.Stats(s.w.model); err == nil {
		r.completed = float64(st.Completed)
		r.batches = float64(st.Batches)
		r.rejected = float64(st.Rejected)
		r.canceled = float64(st.Canceled)
		r.panics = float64(st.Panics)
		for _, ws := range st.Widths {
			r.widthSum += float64(ws.Width) * float64(ws.Count)
			r.widthN += float64(ws.Count)
		}
	}
	if s.tr != nil {
		r.traced = s.tr.counters()
	}
	return r
}

// minus returns r − o, field by field.
func (r resources) minus(o resources) resources {
	return resources{
		cpu:       r.cpu - o.cpu,
		allocs:    r.allocs - o.allocs,
		gcCPU:     r.gcCPU - o.gcCPU,
		totalCPU:  r.totalCPU - o.totalCPU,
		gcCycles:  r.gcCycles - o.gcCycles,
		completed: r.completed - o.completed,
		batches:   r.batches - o.batches,
		widthSum:  r.widthSum - o.widthSum,
		widthN:    r.widthN - o.widthN,
		rejected:  r.rejected - o.rejected,
		canceled:  r.canceled - o.canceled,
		panics:    r.panics - o.panics,
		traced:    r.traced.minus(o.traced),
	}
}

// stealTicks reads the machine-wide CPU steal counter from /proc/stat
// (clock ticks the hypervisor ran something else while this VM's vCPUs
// were runnable) and the total tick count.
func stealTicks() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		var v float64
		fmt.Sscan(f, &v)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// processCPU is the process's user+sys CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssKiB reads the current and peak resident set size (VmRSS, VmHWM)
// from /proc/self/status.
func rssKiB() (cur, peak float64) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		var n float64
		fmt.Sscan(strings.TrimSuffix(strings.TrimSpace(v), " kB"), &n)
		switch k {
		case "VmRSS":
			cur = n
		case "VmHWM":
			peak = n
		}
	}
	return cur, peak
}

// resetPeakRSS sets the kernel's peak-RSS mark (VmHWM) back to the
// current RSS, so the peak read later belongs to what ran since.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// quantile returns the q-quantile (0..1) of v by linear interpolation
// between closest ranks; v is sorted in place.
func quantile(v []int64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo+1 >= len(v) {
		return float64(v[len(v)-1])
	}
	frac := pos - float64(lo)
	return float64(v[lo])*(1-frac) + float64(v[lo+1])*frac
}

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// fingerprint identifies the machine and program a run measured.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOAMD64    string `json:"goamd64"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	StoreFS    string `json:"store_fs"`
}

func machineFingerprint(root, storeDir string) fingerprint {
	fp := fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOAMD64:    "v1",
		Commit:     os.Getenv("PERFBENCH_COMMIT"),
		SourceHash: sourceHash(root),
		StoreFS:    fsType(storeDir),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				fp.GOAMD64 = s.Value
			}
		}
	}
	if fp.Commit == "" {
		fp.Commit = "unknown"
	}
	return fp
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash digests the program's Go sources and module file, so a
// record names the code it measured even where no git metadata exists.
func sourceHash(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel+"\x00")
		io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fsType names the filesystem holding dir (statfs f_type).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6a656a63:
		return "fakeowner"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
