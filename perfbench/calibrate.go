package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/workload"
)

// runCalibrate measures the closed-loop capacity of the workload's
// request path: clients send back to back for --seconds, and the
// throughput and process CPU per statement are printed. The fixed
// light and heavy rates are about 25% and 60% of this capacity.
func runCalibrate(cfg config) error {
	w := cfg.workload
	env := experiments.NewEnv(experiments.SmallScale())
	probes := workload.Statements(env.SDSSSplit.Test)
	dir := filepath.Join(cfg.root, ".bench_build", "calibrate")
	ctx := context.Background()
	s, err := setup(ctx, w, trainSet{env.SDSSSplit.Train, env.Scale.Cfg}, dir, nil, probes)
	if err != nil {
		return err
	}
	defer s.close()
	src := generateStream(cfg.seed, 200000)
	for _, clients := range []int{1, 2, 4, 8} {
		var n atomic.Int64
		stop := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
		cpu0 := processCPU()
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; time.Now().Before(stop); i += clients {
					k := (i * w.batch) % (len(src.stmts) - w.batch)
					var err error
					if w.batch > 1 {
						_, err = s.main.PredictBatch(ctx, w.model, src.stmts[k:k+w.batch])
					} else {
						_, err = s.main.Predict(ctx, w.model, src.stmts[k])
					}
					if err == nil {
						n.Add(1)
					}
				}
			}(c)
		}
		wg.Wait()
		el := time.Since(start).Seconds()
		cpu := processCPU() - cpu0
		fmt.Printf("%s clients=%d requests/s=%.0f cpu_us_per_stmt=%.1f\n", w.name, clients,
			float64(n.Load())/el, float64(cpu)/1e3/float64(n.Load()*int64(w.batch)))
	}
	return nil
}
