package service

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// newSyncPair builds two Services over one shared store directory —
// two "nodes" of a cluster — with node A already warm-booted.
func newSyncPair(t *testing.T) (a, b *Service) {
	t.Helper()
	dir := t.TempDir()
	sa, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	a = New(Options{Serve: serve.Options{Replicas: 1}, Store: sa})
	if _, err := a.WarmBoot(); err != nil {
		t.Fatal(err)
	}
	b = New(Options{Serve: serve.Options{Replicas: 1}, Store: sb})
	if _, err := b.WarmBoot(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func bitsOf(probs []float64) []uint64 {
	out := make([]uint64, len(probs))
	for i, p := range probs {
		out[i] = math.Float64bits(p)
	}
	return out
}

// TestSyncConvergence is the tentpole scenario: deploy on node A,
// predict on node B after one sync pass, bit-identical to A.
func TestSyncConvergence(t *testing.T) {
	a, b := newSyncPair(t)
	ctx := context.Background()
	m := trainCCNN(t, core.ErrorClassification)
	if _, err := a.Swap("shared", m); err != nil {
		t.Fatal(err)
	}

	// Before the sync, node B has never heard of the model.
	if _, err := b.Predict(ctx, "shared", testStatements(1)[0]); err == nil {
		t.Fatal("node B served a model it never synced")
	}

	rep, err := b.SyncStore()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Loaded != 1 || len(rep.NewModels) != 1 || len(rep.Applied) != 1 {
		t.Fatalf("sync report = %+v, want 1 loaded / 1 new / 1 applied", rep)
	}
	if rep.Quarantined != 0 || len(rep.Details) != 0 {
		t.Fatalf("clean sync reported incidents: %+v", rep)
	}

	for _, stmt := range testStatements(10) {
		pa, err := a.Predict(ctx, "shared", stmt)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := b.Predict(ctx, "shared", stmt)
		if err != nil {
			t.Fatalf("node B predict after sync: %v", err)
		}
		if pa.Class != pb.Class || pa.Version != pb.Version {
			t.Fatalf("nodes disagree: A=%+v B=%+v", pa, pb)
		}
		ba, bb := bitsOf(pa.Probs), bitsOf(pb.Probs)
		for i := range ba {
			if ba[i] != bb[i] {
				t.Fatalf("probs[%d] differ bitwise: %x vs %x", i, ba[i], bb[i])
			}
		}
	}

	// A second pass is a no-op: same marker generation, nothing new.
	rep, err = b.SyncStore()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Changed() {
		t.Fatalf("idle sync pass reported changes: %+v", rep)
	}
}

// TestSyncFollowsRedeploy: a new version and redeploy on A move B's
// live version on the next pass.
func TestSyncFollowsRedeploy(t *testing.T) {
	a, b := newSyncPair(t)
	ctx := context.Background()
	m := trainCCNN(t, core.ErrorClassification)
	if _, err := a.Swap("m", m); err != nil {
		t.Fatal(err)
	}
	if _, err := b.SyncStore(); err != nil {
		t.Fatal(err)
	}

	m2 := trainCCNN(t, core.ErrorClassification)
	if _, err := a.Swap("m", m2); err != nil {
		t.Fatal(err)
	}
	rep, err := b.SyncStore()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Loaded != 1 || len(rep.Applied) != 1 || rep.Applied[0].LiveVersion != 2 {
		t.Fatalf("redeploy sync report = %+v, want v2 applied", rep)
	}
	p, err := b.Predict(ctx, "m", testStatements(1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if p.Version != 2 {
		t.Fatalf("node B serves v%d after sync, want v2", p.Version)
	}
}

// TestSyncLocalWinsTies: a marker whose generation does not exceed the
// entry's is ignored — a node's own explicit deploys beat anything it
// merely observed at the same generation.
func TestSyncLocalWinsTies(t *testing.T) {
	a, b := newSyncPair(t)
	ctx := context.Background()
	m := trainCCNN(t, core.ErrorClassification)
	if _, err := a.Swap("m", m); err != nil { // gen 1
		t.Fatal(err)
	}
	m2 := trainCCNN(t, core.ErrorClassification)
	if _, err := a.Register("m", m2); err != nil { // v2, not deployed
		t.Fatal(err)
	}
	if _, err := b.SyncStore(); err != nil { // B at gen 1, serving v1
		t.Fatal(err)
	}

	// B explicitly deploys v2: gen 2, marker rewritten by B.
	if _, err := b.Deploy("m", 2); err != nil {
		t.Fatal(err)
	}

	// Forge a same-generation marker naming v1 (what a concurrent
	// deploy on another node would have written losing the race).
	rec, err := json.Marshal(liveRecord{Version: 1, Gen: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.opts.Store.Put(liveKey("m"), rec); err != nil {
		t.Fatal(err)
	}
	rep, err := b.SyncStore()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Applied) != 0 {
		t.Fatalf("tie-generation marker was applied: %+v", rep)
	}
	p, err := b.Predict(ctx, "m", testStatements(1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if p.Version != 2 {
		t.Fatalf("local deploy lost the tie: serving v%d", p.Version)
	}

	// A strictly newer generation does win.
	rec, err = json.Marshal(liveRecord{Version: 1, Gen: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.opts.Store.Put(liveKey("m"), rec); err != nil {
		t.Fatal(err)
	}
	rep, err = b.SyncStore()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Applied) != 1 {
		t.Fatalf("newer-generation marker not applied: %+v", rep)
	}
	p, err = b.Predict(ctx, "m", testStatements(1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if p.Version != 1 {
		t.Fatalf("gen-3 marker names v1, node serves v%d", p.Version)
	}
	_ = a
}

// TestSyncQuarantinesDamage: a blob corrupted between nodes gets
// WarmBoot's quarantine treatment mid-sync, and the survivors still
// converge.
func TestSyncQuarantinesDamage(t *testing.T) {
	a, b := newSyncPair(t)
	ctx := context.Background()
	m := trainCCNN(t, core.ErrorClassification)
	if _, err := a.Swap("good", m); err != nil {
		t.Fatal(err)
	}
	// A fake second model whose only artifact is garbage.
	if err := a.opts.Store.Put(artifactKey("bad", 1), []byte("not an artifact")); err != nil {
		t.Fatal(err)
	}

	rep, err := b.SyncStore()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1 (report %+v)", rep.Quarantined, rep)
	}
	if _, err := b.Predict(ctx, "good", testStatements(1)[0]); err != nil {
		t.Fatalf("intact model did not survive the damaged one: %v", err)
	}
	keys, err := b.opts.Store.List()
	if err != nil {
		t.Fatal(err)
	}
	var parked bool
	for _, k := range keys {
		if k == quarantinePrefix+artifactKey("bad", 1) {
			parked = true
		}
		if k == artifactKey("bad", 1) {
			t.Fatal("damaged artifact left in place")
		}
	}
	if !parked {
		t.Fatal("damaged artifact not parked under quarantine/")
	}

	// The damaged model never becomes a registry entry.
	for _, info := range b.Models() {
		if info.Name == "bad" {
			t.Fatal("model with no intact versions was registered")
		}
	}
}

// TestSyncMarkerGenerationSurvivesReboot: WarmBoot restores the
// marker's generation instead of minting a new one, so a rebooted node
// neither hijacks ties nor re-applies its own marker.
func TestSyncMarkerGenerationSurvivesReboot(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Options{Serve: serve.Options{Replicas: 1}, Store: store})
	if _, err := s1.WarmBoot(); err != nil {
		t.Fatal(err)
	}
	m := trainCCNN(t, core.ErrorClassification)
	if _, err := s1.Swap("m", m); err != nil {
		t.Fatal(err)
	}
	readGen := func() int64 {
		t.Helper()
		data, err := store.Get(liveKey("m"))
		if err != nil {
			t.Fatal(err)
		}
		var rec liveRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Fatal(err)
		}
		return rec.Gen
	}
	if g := readGen(); g != 1 {
		t.Fatalf("gen after first deploy = %d, want 1", g)
	}
	s1.Close()

	store2, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Options{Serve: serve.Options{Replicas: 1}, Store: store2})
	defer s2.Close()
	if _, err := s2.WarmBoot(); err != nil {
		t.Fatal(err)
	}
	if g := readGen(); g != 1 {
		t.Fatalf("gen after reboot = %d, want 1 (reboot must not mint a generation)", g)
	}
	// A post-reboot explicit deploy continues the sequence.
	if _, err := s2.Deploy("m", 1); err != nil {
		t.Fatal(err)
	}
	if g := readGen(); g != 2 {
		t.Fatalf("gen after post-reboot deploy = %d, want 2", g)
	}
}

// TestSyncConcurrentRegisterDeploy runs node B's store watcher flat
// out while B swaps in versions of one model and node A of another, so
// the race detector sees the replay next to every registry writer.
// Version numbers stay dense on B and it ends serving both latest
// deploys.
func TestSyncConcurrentRegisterDeploy(t *testing.T) {
	a, b := newSyncPair(t)
	m := trainCCNN(t, core.ErrorClassification)
	stop := b.WatchStore(time.Millisecond, nil)
	defer stop()
	const rounds = 8
	var wg sync.WaitGroup
	errc := make(chan error, 2)
	for _, w := range []struct {
		svc  *Service
		name string
	}{{b, "local"}, {a, "remote"}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := w.svc.Swap(w.name, m); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	stop()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if _, err := b.SyncStore(); err != nil {
		t.Fatal(err)
	}
	models := b.Models()
	if len(models) != 2 {
		t.Fatalf("node B models = %+v, want local and remote", models)
	}
	for _, info := range models {
		if info.Versions != rounds || info.Available != rounds || info.LiveVersion != rounds {
			t.Fatalf("node B %q = %+v, want v%d of %d live", info.Name, info, rounds, rounds)
		}
	}
}

// TestWatchStore: the background watcher converges B onto A's deploy
// within a few intervals, logs the pass, stops idempotently, and is a
// no-op without a store.
func TestWatchStore(t *testing.T) {
	a, b := newSyncPair(t)
	ctx := context.Background()

	logc := make(chan string, 64)
	stop := b.WatchStore(5*time.Millisecond, func(format string, args ...any) {
		select {
		case logc <- strings.TrimSpace(format):
		default:
		}
	})
	defer stop()

	m := trainCCNN(t, core.ErrorClassification)
	if _, err := a.Swap("watched", m); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := b.Predict(ctx, "watched", testStatements(1)[0]); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("node B did not converge within 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	select {
	case line := <-logc:
		if !strings.Contains(line, "store sync") {
			t.Fatalf("watcher log line = %q", line)
		}
	case <-time.After(time.Second):
		t.Fatal("watcher never logged the convergence pass")
	}
	stop()
	stop() // idempotent

	// Storeless / disabled watchers return immediate no-op stops.
	storeless := New(Options{Serve: serve.Options{Replicas: 1}})
	defer storeless.Close()
	storeless.WatchStore(time.Millisecond, nil)()
	b.WatchStore(0, nil)()
}

// TestWatchStoreExitsOnClose: the watcher goroutine drains on its own
// once the service closes (no goroutine leak without calling stop).
func TestWatchStoreExitsOnClose(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Serve: serve.Options{Replicas: 1}, Store: store})
	if _, err := s.WarmBoot(); err != nil {
		t.Fatal(err)
	}
	stop := s.WatchStore(time.Millisecond, nil)
	s.Close()
	done := make(chan struct{})
	go func() { stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stop() hung after Close")
	}
}

// TestWarmBootSyncParity replays each damaged store twice — WarmBoot
// into an empty service, SyncStore into an empty ready one — and
// requires the same registry, the same quarantined keys and the same
// counts. The paths differ only in WarmBoot's fallback deploy for a
// marker it could not apply. Version numbers a pass could not load
// stay taken on both paths: the next Register never reuses them.
func TestWarmBootSyncParity(t *testing.T) {
	src := New(Options{Serve: serve.Options{Replicas: 1}, Store: NewMemStore()})
	defer src.Close()
	if _, err := src.WarmBoot(); err != nil {
		t.Fatal(err)
	}
	m := trainCCNN(t, core.ErrorClassification)
	for i := 0; i < 2; i++ {
		if _, err := src.Register("errors", m); err != nil {
			t.Fatal(err)
		}
	}
	v1, _ := src.opts.Store.Get(artifactKey("errors", 1))
	v2, _ := src.opts.Store.Get(artifactKey("errors", 2))
	garbled := append([]byte(nil), v2...)
	garbled[len(garbled)/2] ^= 0x20
	live := liveKey("errors")

	rows := []struct {
		name  string
		blobs map[string][]byte
		// fallback is the version WarmBoot falls back to, where
		// SyncStore leaves the model cold (0: no fallback).
		fallback int
		// next is the version the next Register must mint (0: skip).
		next int
	}{
		{"foreign key", map[string][]byte{artifactKey("errors", 1): v1, "README": []byte("not ours")}, 0, 2},
		{"corrupt artifact", map[string][]byte{artifactKey("errors", 1): garbled, artifactKey("errors", 2): v2}, 0, 3},
		{"corrupt top version", map[string][]byte{artifactKey("errors", 1): v1, artifactKey("errors", 2): garbled}, 0, 3},
		{"version hole", map[string][]byte{artifactKey("errors", 2): v2}, 0, 3},
		{"orphan marker", map[string][]byte{live: []byte(`{"version":1,"gen":4}`)}, 0, 0},
		{"garbage marker", map[string][]byte{artifactKey("errors", 1): v1, artifactKey("errors", 2): v2, live: []byte("{not json")}, 2, 0},
		{"marker names quarantined version", map[string][]byte{artifactKey("errors", 1): v1, artifactKey("errors", 2): garbled, live: []byte(`{"version":2,"gen":3}`)}, 1, 0},
		{"gen-less marker", map[string][]byte{artifactKey("errors", 1): v1, artifactKey("errors", 2): v2, live: []byte(`{"version":1}`)}, 0, 0},
	}
	fill := func(st Store, blobs map[string][]byte) {
		for k, v := range blobs {
			if err := st.Put(k, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	quarantined := func(st Store) []string {
		keys, err := st.List()
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, k := range keys {
			if strings.HasPrefix(k, quarantinePrefix) {
				out = append(out, k)
			}
		}
		return out
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			bootStore := NewMemStore()
			fill(bootStore, row.blobs)
			boot := New(Options{Serve: serve.Options{Replicas: 1}, Store: bootStore})
			defer boot.Close()
			brep, err := boot.WarmBoot()
			if err != nil {
				t.Fatal(err)
			}

			syncStore := NewMemStore()
			syncer := New(Options{Serve: serve.Options{Replicas: 1}, Store: syncStore})
			defer syncer.Close()
			if _, err := syncer.WarmBoot(); err != nil {
				t.Fatal(err)
			}
			fill(syncStore, row.blobs)
			srep, err := syncer.SyncStore()
			if err != nil {
				t.Fatal(err)
			}

			if brep.Loaded != srep.Loaded || brep.Quarantined != srep.Quarantined {
				t.Fatalf("boot loaded/quarantined %d/%d, sync %d/%d",
					brep.Loaded, brep.Quarantined, srep.Loaded, srep.Quarantined)
			}
			if bq, sq := quarantined(bootStore), quarantined(syncStore); strings.Join(bq, ",") != strings.Join(sq, ",") {
				t.Fatalf("quarantine keys: boot %v, sync %v", bq, sq)
			}
			bm, sm := boot.Models(), syncer.Models()
			if len(bm) != len(sm) {
				t.Fatalf("models: boot %+v, sync %+v", bm, sm)
			}
			for i := range bm {
				b, s := bm[i], sm[i]
				if b.Name != s.Name || b.Versions != s.Versions || b.Available != s.Available {
					t.Fatalf("model: boot %+v, sync %+v", b, s)
				}
				switch {
				case row.fallback == 0 && b.LiveVersion != s.LiveVersion:
					t.Fatalf("live version: boot v%d, sync v%d", b.LiveVersion, s.LiveVersion)
				case row.fallback != 0 && (b.LiveVersion != row.fallback || s.LiveVersion != 0):
					t.Fatalf("fallback: boot serves v%d, sync v%d; want v%d and cold",
						b.LiveVersion, s.LiveVersion, row.fallback)
				}
			}
			if row.next == 0 {
				return
			}
			for label, svc := range map[string]*Service{"boot": boot, "sync": syncer} {
				info, err := svc.Register("errors", m)
				if err != nil {
					t.Fatal(err)
				}
				if info.Version != row.next {
					t.Fatalf("%s: next Register minted v%d, want v%d (version numbers are never reused)",
						label, info.Version, row.next)
				}
			}
		})
	}
}
