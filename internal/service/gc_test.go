package service

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
)

// TestRetentionOnDeploy pins the GC contract: with Retain set, every
// deploy prunes the deployed model down to the newest Retain versions
// plus the live one — from memory AND the store — leaving permanent
// version holes that can no longer be deployed, while everything
// retained still serves and rolls back.
func TestRetentionOnDeploy(t *testing.T) {
	store := NewMemStore()
	s := New(Options{Serve: serve.Options{Replicas: 1}, Store: store, Retain: 2})
	defer s.Close()
	if _, err := s.WarmBoot(); err != nil {
		t.Fatal(err)
	}
	m := trainCCNN(t, core.ErrorClassification)
	for i := 0; i < 5; i++ {
		if _, err := s.Swap("errors", m); err != nil {
			t.Fatal(err)
		}
	}
	// Retain=2 counts the live version among the newest two here, so
	// the survivors are {v5 (live), v4}; v3 and older are pruned.
	models := s.Models()
	if len(models) != 1 || models[0].Versions != 5 || models[0].Available != 2 {
		t.Fatalf("models after GC = %+v, want versions=5 available=2", models)
	}
	keys, _ := store.List()
	var artifacts []string
	for _, k := range keys {
		if strings.HasPrefix(k, "v") {
			artifacts = append(artifacts, k)
		}
	}
	wantKept := map[string]bool{artifactKey("errors", 4): true, artifactKey("errors", 5): true}
	if len(artifacts) != len(wantKept) {
		t.Fatalf("store artifacts after GC = %v, want exactly %v", artifacts, wantKept)
	}
	for _, k := range artifacts {
		if !wantKept[k] {
			t.Fatalf("store kept pruned artifact %q", k)
		}
	}
	if _, err := s.Deploy("errors", 2); err == nil {
		t.Fatal("Deploy resurrected a GC-pruned version")
	}
	// Retained non-live version still deploys (rollback within policy).
	if info, err := s.Deploy("errors", 4); err != nil || info.LiveVersion != 4 {
		t.Fatalf("Deploy(4) = %+v, %v", info, err)
	}
	if _, err := s.Predict(context.Background(), "errors", testStatements(1)[0]); err != nil {
		t.Fatalf("predict on retained rollback: %v", err)
	}
	// Version numbers are never reused after pruning.
	info, err := s.Swap("errors", m)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 6 {
		t.Fatalf("post-GC Swap produced v%d, want v6", info.Version)
	}
}

// TestGCOnDemand: with Retain unset at deploy time nothing is pruned;
// raising Retain and calling GC() catches the registry up, and the live
// version survives even when it is old.
func TestGCOnDemand(t *testing.T) {
	store := NewMemStore()
	s := New(Options{Serve: serve.Options{Replicas: 1}, Store: store})
	defer s.Close()
	if _, err := s.WarmBoot(); err != nil {
		t.Fatal(err)
	}
	m := trainCCNN(t, core.ErrorClassification)
	for i := 0; i < 4; i++ {
		if _, err := s.Swap("errors", m); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Deploy("errors", 1); err != nil { // old version live
		t.Fatal(err)
	}
	if results, err := s.GC(); err != nil || len(results[0].Removed) != 0 {
		t.Fatalf("Retain=0 GC pruned %+v, %v", results, err)
	}
	s.opts.Retain = 1
	results, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	// Keep v4 (newest 1) + v1 (live); prune v2, v3.
	if len(results) != 1 || results[0].Name != "errors" || results[0].Retained != 2 {
		t.Fatalf("GC results = %+v, want errors retained=2", results)
	}
	if got := results[0].Removed; len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("GC removed %v, want [2 3]", got)
	}
	if pr, err := s.Predict(context.Background(), "errors", testStatements(1)[0]); err != nil || pr.Version != 1 {
		t.Fatalf("live old version after GC: %+v, %v", pr, err)
	}
	if _, err := store.Get(artifactKey("errors", 1)); err != nil {
		t.Fatal("GC deleted the live version's artifact")
	}
}

// TestGCStoreDeleteFailure: a store that refuses deletes must not make
// the registry forget versions the store still holds — the failed
// version stays deployable and the next pass retries.
func TestGCStoreDeleteFailure(t *testing.T) {
	inner := NewMemStore()
	fs := &failingDeleteStore{Store: inner}
	s := New(Options{Serve: serve.Options{Replicas: 1}, Store: fs, Retain: 1})
	defer s.Close()
	if _, err := s.WarmBoot(); err != nil {
		t.Fatal(err)
	}
	m := trainCCNN(t, core.ErrorClassification)
	fs.fail = true
	for i := 0; i < 3; i++ {
		if _, err := s.Swap("errors", m); err != nil {
			t.Fatal(err)
		}
	}
	// Deletes all failed: every version must still be available.
	if models := s.Models(); models[0].Available != 3 {
		t.Fatalf("failed deletes lost versions: %+v", models)
	}
	if _, err := s.GC(); err == nil {
		t.Fatal("GC swallowed the store delete failure")
	}
	fs.fail = false
	results, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	// Retain=1 with v3 live counts the live version as the one kept:
	// the recovered pass prunes both stragglers.
	if got := results[0].Removed; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("recovered GC removed %v, want [1 2]", got)
	}
}

// failingDeleteStore fails every Delete while fail is set.
type failingDeleteStore struct {
	Store
	fail bool
}

func (s *failingDeleteStore) Delete(key string) error {
	if s.fail {
		return errors.New("synthetic delete failure")
	}
	return s.Store.Delete(key)
}

// TestWarmBootRetention: a boot enforces Retain on every model it
// deploys. With Retain 1 and v2 of three live, v3 (the newest) and v2
// (live) survive; v1 is pruned from memory and from the store.
func TestWarmBootRetention(t *testing.T) {
	store := NewMemStore()
	s1 := New(Options{Serve: serve.Options{Replicas: 1}, Store: store})
	if _, err := s1.WarmBoot(); err != nil {
		t.Fatal(err)
	}
	m := trainCCNN(t, core.ErrorClassification)
	for i := 0; i < 3; i++ {
		if _, err := s1.Register("errors", m); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s1.Deploy("errors", 2); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	s2 := New(Options{Serve: serve.Options{Replicas: 1}, Store: store, Retain: 1})
	defer s2.Close()
	rep, err := s2.WarmBoot()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Deployed) != 1 || rep.Deployed[0].LiveVersion != 2 || rep.Deployed[0].Available != 2 {
		t.Fatalf("boot deployed %+v, want v2 live with 2 versions available", rep.Deployed)
	}
	if models := s2.Models(); len(models) != 1 || models[0].Versions != 3 || models[0].Available != 2 {
		t.Fatalf("models after boot = %+v, want versions=3 available=2", models)
	}
	if _, err := s2.VersionModel("errors", 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("pruned v1 still in memory: %v", err)
	}
	if _, err := store.Get(artifactKey("errors", 1)); !errors.Is(err, ErrNoKey) {
		t.Fatalf("pruned v1 still in the store: %v", err)
	}
	for _, v := range []int{2, 3} {
		if _, err := store.Get(artifactKey("errors", v)); err != nil {
			t.Fatalf("retained v%d missing from the store: %v", v, err)
		}
	}
}
