package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/online"
	"repro/internal/serve"
	"repro/internal/service"
	"repro/internal/wire"
	"repro/internal/workload"
)

// trainSet is the fixed training data every setup trains on. It does
// not depend on the run's seed, so every run serves the same model.
type trainSet struct {
	items []workload.Item
	cfg   core.Config
}

// stack is one running service with its listeners, clients and online
// pipeline.
type stack struct {
	w   workloadSpec
	dir string
	tr  *tracer // nil in an untraced run

	store    *watchedStore
	wal      *ingest.WAL
	svc      *service.Service
	wsrv     *wire.Server
	hsrv     *http.Server
	served   chan error // one value per listener's Serve loop
	pipeline *online.Pipeline
	httpTr   *http.Transport

	// main drives the workload's transport; other is the transport the
	// workload does not use, kept for the output check.
	main, other *client.Client
	wireURL     string
	httpURL     string

	version int // the version deployed at setup
	trainS  float64
	setupS  float64
	trainN  int
}

// setup runs one timed set-up: train → Register into a DirStore →
// WarmBoot a fresh Service on that store → Deploy → listeners up →
// first successful predict through the workload's transport.
func setup(ctx context.Context, w workloadSpec, ts trainSet, dir string, tr *tracer, probe []string) (*stack, error) {
	s := &stack{w: w, dir: dir, tr: tr, served: make(chan error, 2)}
	start := time.Now()
	m, err := core.Train(w.model, core.ErrorClassification, ts.items, ts.cfg)
	if err != nil {
		return nil, fmt.Errorf("train %s: %w", w.model, err)
	}
	s.trainS = time.Since(start).Seconds()
	s.trainN = len(ts.items) * ts.cfg.Epochs

	ds, err := service.NewDirStore(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	reg := service.New(service.Options{Store: ds})
	info, err := reg.Register(w.model, m)
	reg.Close()
	if err != nil {
		return nil, fmt.Errorf("register: %w", err)
	}
	s.version = info.Version
	s.store = newWatchedStore(ds, tr != nil)
	if s.wal, err = ingest.Open(filepath.Join(dir, "wal"), ingest.Options{}); err != nil {
		return nil, err
	}
	// serviced's serving defaults: one replica per core, fused batches
	// up to 32, no gather window, reject when the queue is full.
	s.svc = service.New(service.Options{
		Serve:       serve.Options{Replicas: runtime.GOMAXPROCS(0), MaxBatch: 32, Admission: serve.AdmitReject},
		Store:       s.store,
		Ingest:      s.wal,
		IngestEvery: w.sample,
	})
	if _, err := s.svc.WarmBoot(); err != nil {
		s.close()
		return nil, fmt.Errorf("warm boot: %w", err)
	}
	if tr != nil {
		// The predict hook marks the start of inference for each
		// statement. It must be installed before Deploy builds the
		// replicas, which inherit it, as do fine-tuned candidates.
		vm, err := s.svc.VersionModel(w.model, s.version)
		if err != nil {
			s.close()
			return nil, err
		}
		vm.SetPredictHook(tr.predictHook)
	}
	if _, err := s.svc.Deploy(w.model, s.version); err != nil {
		s.close()
		return nil, fmt.Errorf("deploy: %w", err)
	}
	if err := s.listen(); err != nil {
		s.close()
		return nil, err
	}
	if err := s.firstPredict(ctx, probe); err != nil {
		s.close()
		return nil, fmt.Errorf("first predict: %w", err)
	}
	s.setupS = time.Since(start).Seconds()

	// The pipeline starts after the service is serving, as in
	// serviced. It polls the WAL every 10 ms instead of serviced's
	// 200 ms so learn_s measures the pipeline's work, not its idle poll.
	s.pipeline, err = online.Start(online.Options{
		Service:  s.svc,
		Store:    s.store,
		Dir:      s.wal.Dir(),
		Models:   []string{w.model},
		Window:   onlineWindow,
		Interval: 10 * time.Millisecond,
		Config:   core.DefaultConfig(),
	})
	if err != nil {
		s.close()
		return nil, fmt.Errorf("online pipeline: %w", err)
	}
	return s, nil
}

// listen starts the wire and HTTP servers on loopback ports and builds
// one client per transport.
func (s *stack) listen() error {
	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		wln.Close()
		return err
	}
	s.wireURL = "tcp://" + wln.Addr().String()
	s.httpURL = "http://" + hln.Addr().String()
	handler := service.NewHandler(s.svc)
	if s.tr != nil {
		wln = s.tr.wrapListener(wln, layerWire)
		hln = s.tr.wrapListener(hln, layerHTTP)
		handler = s.tr.wrapHandler(handler)
	}
	s.wsrv = wire.NewServer(s.svc, wire.ServerOptions{})
	s.hsrv = &http.Server{Handler: handler}
	go func() { s.served <- s.wsrv.Serve(wln) }()
	go func() {
		err := s.hsrv.Serve(hln)
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		s.served <- err
	}()

	// At most nproc connections per transport: the wire client's
	// default pool is 2 connections, and HTTP is capped the same way.
	s.httpTr = &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, IdleConnTimeout: 90 * time.Second}
	var rt http.RoundTripper = s.httpTr
	if s.tr != nil {
		rt = s.tr.wrapRoundTripper(rt)
	}
	opts := client.Options{Retries: -1, HTTPClient: &http.Client{Transport: rt}}
	wc, err := client.New(s.wireURL, opts)
	if err != nil {
		return err
	}
	hc, err := client.New(s.httpURL, opts)
	if err != nil {
		wc.Close()
		return err
	}
	s.main, s.other = wc, hc
	if s.w.http {
		s.main, s.other = hc, wc
	}
	return nil
}

// firstPredict sends the first request of the workload's shape.
func (s *stack) firstPredict(ctx context.Context, probe []string) error {
	if s.w.batch > 1 {
		_, err := s.main.PredictBatch(ctx, s.w.model, probe[:s.w.batch])
		return err
	}
	_, err := s.main.Predict(ctx, s.w.model, probe[0])
	return err
}

// close stops everything setup started, in serviced's drain order:
// online pipeline, clients, HTTP, wire, pools, WAL.
func (s *stack) close() error {
	var errs []error
	if s.pipeline != nil {
		s.pipeline.Close()
	}
	for _, c := range []*client.Client{s.main, s.other} {
		if c != nil {
			c.Close()
		}
	}
	listeners := 0
	if s.hsrv != nil {
		listeners++
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		errs = append(errs, s.hsrv.Shutdown(ctx))
		cancel()
	}
	if s.wsrv != nil {
		listeners++
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		errs = append(errs, s.wsrv.Shutdown(ctx))
		cancel()
	}
	for i := 0; i < listeners; i++ {
		if err := <-s.served; err != nil && !errors.Is(err, net.ErrClosed) {
			errs = append(errs, err)
		}
	}
	if s.svc != nil {
		s.svc.Close()
	}
	if s.wal != nil {
		errs = append(errs, s.wal.Close())
	}
	if s.httpTr != nil {
		s.httpTr.CloseIdleConnections()
	}
	return errors.Join(errs...)
}
