package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"repro/internal/artifact"
)

// This file is the store control plane: the one pass that replays the
// store into the registry. SyncStore is that pass; WarmBoot is the same
// pass over an empty registry, plus its fallback deploys. Each pass
// re-lists the store, installs artifact versions this node has not
// seen, quarantines damage, and applies live markers: an entry with no
// live pool takes any intact marker, a serving entry only one whose
// generation exceeds its own (see entry.gen), so a node's own explicit
// deploys win ties. Nodes that share one store directory converge on
// one registry state this way, with no RPC between them.

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

// replayResult is one store replay: its SyncReport plus what only
// WarmBoot acts on.
type replayResult struct {
	SyncReport
	// skipped counts keys that are not ours: foreign files and blobs
	// an earlier pass quarantined.
	skipped int
	// readErr is the first failed read of a listed key, other than a
	// key that vanished since List (another node pruning retention).
	readErr error
	// unapplied lists, in name order, the registered models whose live
	// marker was damaged or could not be applied.
	unapplied []string
}

// get reads one listed key. A key deleted since List reads as absent
// without comment; any other failure is reported and kept in readErr.
func (r *replayResult) get(store Store, key string) ([]byte, bool) {
	data, err := store.Get(key)
	if err != nil {
		if !errors.Is(err, ErrNoKey) {
			r.detailf("read %q: %v", key, err)
			if r.readErr == nil {
				r.readErr = err
			}
		}
		return nil, false
	}
	return data, true
}

// quarantine parks a damaged blob under quarantinePrefix, preserved
// verbatim for forensics and invisible to later passes. Best effort:
// if the move fails the blob stays put and the next pass retries.
func (r *replayResult) quarantine(store Store, key string, data []byte, why error) {
	r.Quarantined++
	r.detailf("quarantined %q: %v", key, why)
	if err := store.Put(quarantinePrefix+key, data); err != nil {
		r.detailf("quarantine move of %q failed, blob left in place: %v", key, err)
	} else if err := store.Delete(key); err != nil {
		r.detailf("quarantine delete of original %q failed: %v", key, err)
	}
}

// SyncStore performs one convergence pass against the store: it
// installs artifact versions registered by other nodes (creating
// registry entries for models this node has never seen), and applies
// live markers as the file comment describes. Damaged blobs are
// quarantined and their versions become permanent holes; a marker
// naming a version this node cannot reconstruct is reported and
// skipped (the next pass retries). Keys that vanish between List and
// Get are skipped silently.
//
// A no-op on a storeless service. Safe for concurrent use with every
// other Service method.
func (s *Service) SyncStore() (*SyncReport, error) {
	if s.opts.Store == nil {
		return &SyncReport{}, nil
	}
	r, err := s.replay()
	if err != nil {
		return nil, err
	}
	return &r.SyncReport, nil
}

// replay is the one pass that turns the store back into registry
// state. It fails only when the store cannot be listed or the service
// closes; everything else is reported in the result.
func (s *Service) replay() (*replayResult, error) {
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	store := s.opts.Store
	r := &replayResult{}
	keys, err := store.List()
	if err != nil {
		return nil, fmt.Errorf("service: list store: %w", err)
	}
	versions := make(map[string][]int)
	markers := make(map[string]*liveRecord) // nil: damaged, quarantined
	for _, key := range keys {
		name, v, isArtifact, ok := parseKey(key)
		if !ok {
			r.skipped++ // foreign file, or parked under quarantine/
			continue
		}
		if isArtifact {
			versions[name] = append(versions[name], v)
			continue
		}
		data, ok := r.get(store, key)
		if !ok {
			continue
		}
		rec := new(liveRecord)
		if err := json.Unmarshal(data, rec); err != nil || rec.Version <= 0 {
			if err == nil {
				err = fmt.Errorf("live marker names version %d", rec.Version)
			}
			r.quarantine(store, key, data, err)
			rec = nil
		}
		markers[name] = rec
	}

	// Install the versions this node does not hold. Every listed
	// version number stays taken, as a hole if it does not load, so
	// Register never reuses it. Entries for unseen models are built
	// detached and published only once they hold an intact version.
	for _, name := range slices.Sorted(maps.Keys(versions)) {
		vs := versions[name]
		slices.Sort(vs)
		e, err := s.entry(name)
		if errors.Is(err, ErrClosed) {
			return nil, err
		}
		known := err == nil
		if !known {
			e = &entry{name: name}
		}
		e.mu.Lock()
		for _, v := range vs {
			for len(e.versions) < v {
				e.versions = append(e.versions, nil)
			}
			if e.versions[v-1] != nil {
				continue // already installed
			}
			key := artifactKey(name, v)
			data, ok := r.get(store, key)
			if !ok {
				continue
			}
			m, err := artifact.Decode(data)
			if err == nil && m.Version != v {
				err = fmt.Errorf("artifact claims version %d", m.Version)
			}
			if err == nil && e.kind != "" && (m.Task != e.task || m.Name != e.kind) {
				err = fmt.Errorf("%s/%s does not match entry %s/%s", m.Name, m.Task, e.kind, e.task)
			}
			if err != nil {
				r.quarantine(store, key, data, err)
				continue
			}
			e.task, e.kind = m.Task, m.Name
			e.versions[v-1] = m
			r.Loaded++
		}
		avail := e.available()
		e.mu.Unlock()
		if known {
			continue
		}
		if avail == 0 {
			r.detailf("model %q has no intact versions; not registered", name)
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
		r.NewModels = append(r.NewModels, name)
	}

	// Apply the live markers. A marker is applied at its own
	// generation and is not rewritten.
	for _, name := range slices.Sorted(maps.Keys(markers)) {
		rec := markers[name]
		e, err := s.entry(name)
		if errors.Is(err, ErrClosed) {
			return nil, err
		}
		if err != nil {
			r.detailf("live marker for %q but no intact artifacts; deployment not applied", name)
			continue
		}
		if rec == nil {
			r.unapplied = append(r.unapplied, name)
			continue
		}
		e.mu.Lock()
		cur := e.live.Load()
		switch {
		case cur != nil && rec.Gen <= e.gen:
			// Local state is as new or newer; local wins ties.
		case cur != nil && cur.version == rec.Version && cur.opts == rec.DeployOptions:
			// Already serving exactly this deployment (typically our
			// own marker read back): adopt the generation, skip the
			// pool churn.
			e.gen = rec.Gen
		case rec.Version > len(e.versions) || e.versions[rec.Version-1] == nil:
			r.detailf("live marker for %q names v%d (gen %d) but the version is not intact here; not applied",
				name, rec.Version, rec.Gen)
			r.unapplied = append(r.unapplied, name)
		default:
			serveOpts, err := rec.DeployOptions.apply(s.opts.Serve)
			if err != nil {
				r.detailf("live marker for %q carries bad deploy options: %v", name, err)
				r.unapplied = append(r.unapplied, name)
				break
			}
			if err := s.goLiveLocked(e, rec.Version, rec.DeployOptions, serveOpts, rec.Gen, false); err != nil {
				e.mu.Unlock()
				return nil, err // only ErrClosed: nothing is persisted
			}
			r.Applied = append(r.Applied, e.info(rec.Version))
		}
		e.mu.Unlock()
	}
	return r, nil
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
