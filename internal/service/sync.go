package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/artifact"
)

// This file is the shared-store control plane: nodes that point at the
// same store directory converge on one registry state without any RPC
// between them. Each SyncStore pass re-lists the store, installs
// artifact versions this node has not seen, and adopts live markers
// written by other nodes — but only when the marker's generation
// exceeds the entry's (see entry.gen), so a node's own explicit
// deploys always win ties. Damage discovered mid-sync gets exactly
// WarmBoot's quarantine treatment.

// SyncReport summarizes one SyncStore pass. The zero value means "no
// change observed".
type SyncReport struct {
	// Loaded counts artifact versions newly installed this pass.
	Loaded int `json:"loaded"`
	// NewModels lists registry entries created by this pass (models
	// first registered on another node).
	NewModels []string `json:"new_models,omitempty"`
	// Applied lists deployments adopted from other nodes' live markers.
	Applied []ModelInfo `json:"applied,omitempty"`
	// Quarantined counts blobs parked under quarantine/ this pass.
	Quarantined int `json:"quarantined"`
	// Details is the incident log: one line per quarantine or
	// deployment that could not be applied.
	Details []string `json:"details,omitempty"`
}

// Changed reports whether the pass observed anything at all.
func (r *SyncReport) Changed() bool {
	return r.Loaded > 0 || len(r.NewModels) > 0 || len(r.Applied) > 0 ||
		r.Quarantined > 0 || len(r.Details) > 0
}

func (r *SyncReport) String() string {
	return fmt.Sprintf("loaded %d version(s), %d new model(s), applied %d deploy(s), quarantined %d",
		r.Loaded, len(r.NewModels), len(r.Applied), r.Quarantined)
}

// detailf appends one incident line.
func (r *SyncReport) detailf(format string, args ...any) {
	r.Details = append(r.Details, fmt.Sprintf(format, args...))
}

// syncQuarantine parks a damaged blob exactly as a warm boot would.
func (s *Service) syncQuarantine(rep *SyncReport, key string, data []byte, why error) {
	rep.Quarantined++
	rep.detailf("quarantined %q: %v", key, why)
	for _, incident := range quarantineBlob(s.opts.Store, key, data) {
		rep.detailf("%s", incident)
	}
}

// SyncStore performs one convergence pass against the store: it
// installs artifact versions registered by other nodes (creating
// registry entries for models this node has never seen), and applies
// live markers whose generation is newer than the local entry's.
// Blobs damaged mid-sync are quarantined with WarmBoot's semantics;
// a marker naming a version this node cannot reconstruct is reported
// and skipped (the next pass retries). Keys that vanish between List
// and Get — another node pruning retention — are skipped silently.
//
// A no-op on a storeless service. Safe for concurrent use with every
// other Service method.
func (s *Service) SyncStore() (*SyncReport, error) {
	rep := &SyncReport{}
	if s.opts.Store == nil {
		return rep, nil
	}
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}

	keys, err := s.opts.Store.List()
	if err != nil {
		return nil, fmt.Errorf("service: sync: %w", err)
	}
	versions := make(map[string][]int)
	live := make(map[string]liveRecord)
	for _, key := range keys {
		if strings.HasPrefix(key, quarantinePrefix) {
			continue // parked by an earlier boot or sync; not ours
		}
		name, v, isArtifact, ok := parseKey(key)
		if !ok {
			continue // foreign file in the store directory
		}
		if isArtifact {
			versions[name] = append(versions[name], v)
			continue
		}
		data, err := s.opts.Store.Get(key)
		if err != nil {
			if !errors.Is(err, ErrNoKey) {
				rep.detailf("read live marker %q: %v", key, err)
			}
			continue
		}
		var rec liveRecord
		if err := json.Unmarshal(data, &rec); err != nil || rec.Version <= 0 {
			if err == nil {
				err = fmt.Errorf("live marker names version %d", rec.Version)
			}
			s.syncQuarantine(rep, key, data, err)
			continue
		}
		live[name] = rec
	}

	// Install artifact versions this node does not hold. Entries for
	// unseen models are built detached and published only once they
	// have an intact version, so a model whose artifacts are all
	// damaged never appears in the registry (WarmBoot's rule).
	names := make([]string, 0, len(versions))
	for name := range versions {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		vs := versions[name]
		sort.Ints(vs)
		s.mu.RLock()
		closed := s.closed
		e, known := s.entries[name]
		s.mu.RUnlock()
		if closed {
			return nil, ErrClosed
		}
		if !known {
			e = &entry{name: name}
		}
		e.mu.Lock()
		for _, v := range vs {
			if v <= len(e.versions) && e.versions[v-1] != nil {
				continue // already installed
			}
			key := artifactKey(name, v)
			data, err := s.opts.Store.Get(key)
			if err != nil {
				if !errors.Is(err, ErrNoKey) {
					rep.detailf("read artifact %q: %v", key, err)
				}
				continue
			}
			m, err := artifact.Decode(data)
			if err != nil {
				s.syncQuarantine(rep, key, data, err)
				continue
			}
			if m.Version != v {
				s.syncQuarantine(rep, key, data, fmt.Errorf("artifact claims version %d", m.Version))
				continue
			}
			if e.kind == "" {
				e.task, e.kind = m.Task, m.Name
			} else if m.Task != e.task || m.Name != e.kind {
				s.syncQuarantine(rep, key, data, fmt.Errorf("%s/%s does not match entry %s/%s",
					m.Name, m.Task, e.kind, e.task))
				continue
			}
			for len(e.versions) < v {
				e.versions = append(e.versions, nil)
			}
			e.versions[v-1] = m
			rep.Loaded++
		}
		avail := e.available()
		e.mu.Unlock()
		if known {
			continue
		}
		if avail == 0 {
			rep.detailf("model %q has no intact versions; not registered", name)
			continue
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return nil, ErrClosed
		}
		if _, raced := s.entries[name]; raced {
			// A concurrent Register beat us to the name: drop our
			// detached entry; the next pass merges into the winner.
			s.mu.Unlock()
			continue
		}
		s.entries[name] = e
		s.mu.Unlock()
		rep.NewModels = append(rep.NewModels, name)
	}

	// Apply live markers newer than our entry's generation. Ties (and
	// older markers) lose to local state: this node's own deploys set
	// the generation they persisted, so a marker it merely observes
	// must strictly exceed it.
	markerNames := make([]string, 0, len(live))
	for name := range live {
		markerNames = append(markerNames, name)
	}
	sort.Strings(markerNames)
	for _, name := range markerNames {
		rec := live[name]
		s.mu.RLock()
		closed := s.closed
		e, known := s.entries[name]
		s.mu.RUnlock()
		if closed {
			return nil, ErrClosed
		}
		if !known {
			rep.detailf("live marker for %q but no intact artifacts; deployment not applied", name)
			continue
		}
		e.mu.Lock()
		if rec.Gen <= e.gen {
			e.mu.Unlock()
			continue // local state is as new or newer; local wins ties
		}
		if cur := e.live.Load(); cur != nil && cur.version == rec.Version && cur.opts == rec.DeployOptions {
			// Already serving exactly this deployment (typically our
			// own marker read back): adopt the generation, skip the
			// pool churn.
			e.gen = rec.Gen
			e.mu.Unlock()
			continue
		}
		if rec.Version > len(e.versions) || e.versions[rec.Version-1] == nil {
			e.mu.Unlock()
			rep.detailf("live marker for %q names v%d (gen %d) but the version is not intact here; not applied",
				name, rec.Version, rec.Gen)
			continue
		}
		serveOpts, err := rec.DeployOptions.apply(s.opts.Serve)
		if err != nil {
			e.mu.Unlock()
			rep.detailf("live marker for %q carries bad deploy options: %v", name, err)
			continue
		}
		if err := s.goLiveLocked(e, rec.Version, rec.DeployOptions, serveOpts, rec.Gen, false); err != nil {
			e.mu.Unlock()
			return nil, err
		}
		info := e.info(rec.Version)
		e.mu.Unlock()
		rep.Applied = append(rep.Applied, info)
	}
	return rep, nil
}

// WatchStore starts a background goroutine that runs SyncStore every
// interval — the poll loop that makes serviced nodes sharing one store
// directory converge without a control plane. logf (optional) receives
// one line per pass that changed anything and one per sync error. The
// returned stop function halts the watcher and waits for it to exit;
// it is idempotent. The watcher also exits on its own once the service
// closes. A no-op (returning an immediate stop) when the service has
// no store or interval <= 0.
func (s *Service) WatchStore(interval time.Duration, logf func(format string, args ...any)) (stop func()) {
	if s.opts.Store == nil || interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
			}
			rep, err := s.SyncStore()
			if err != nil {
				if errors.Is(err, ErrClosed) {
					return
				}
				if logf != nil {
					logf("store sync: %v", err)
				}
				continue
			}
			if logf != nil && rep.Changed() {
				logf("store sync: %s", rep)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-finished
	}
}
