package storage

import (
	"errors"
	"strings"
	"testing"
)

func TestFaultStoreDeterministicSchedule(t *testing.T) {
	run := func() []bool {
		fs := NewFaultStore(NewMemStore(), FaultConfig{Seed: 99, ErrRate: 0.3})
		var outcomes []bool
		for i := 0; i < 200; i++ {
			err := fs.Put("k", []byte("v"))
			outcomes = append(outcomes, err == nil)
		}
		return outcomes
	}
	a, b := run(), run()
	var failed int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at op %d despite identical seeds", i)
		}
		if !a[i] {
			failed++
		}
	}
	if failed < 30 || failed > 90 {
		t.Errorf("%d/200 failures at rate 0.3 — schedule looks mis-seeded", failed)
	}
}

func TestFaultRuleTargeting(t *testing.T) {
	fs := NewFaultStore(NewMemStore(), FaultConfig{
		Seed: 1,
		Rules: []FaultRule{
			{Op: FaultOpPut, KeySubstr: "manifest", FailAfter: 1, FailCount: 2},
		},
	})
	// First matching Put is skipped by FailAfter.
	if err := fs.Put("tables/t/manifest.json", nil); err != nil {
		t.Fatalf("op 1 should pass (FailAfter=1): %v", err)
	}
	// Ops 2 and 3 fail (FailCount=2), transiently.
	for i := 0; i < 2; i++ {
		err := fs.Put("tables/t/manifest.json", nil)
		if err == nil {
			t.Fatalf("matching op %d should fail", i+2)
		}
		var te *TransientError
		if !errors.As(err, &te) {
			t.Fatalf("injected error should be transient, got %v", err)
		}
	}
	// Budget exhausted: matching ops pass again.
	if err := fs.Put("tables/t/manifest.json", nil); err != nil {
		t.Fatalf("op 4 should pass (FailCount exhausted): %v", err)
	}
	// Non-matching ops never failed.
	if err := fs.Put("tables/t/segments/seg1/col.bin", nil); err != nil {
		t.Fatalf("non-matching key failed: %v", err)
	}
	if _, err := fs.Get("tables/t/manifest.json"); err != nil {
		t.Fatalf("non-matching op kind failed: %v", err)
	}
	if got := fs.Stats().Injected; got != 2 {
		t.Errorf("Injected = %d, want 2", got)
	}
}

func TestFaultRulePermanent(t *testing.T) {
	fs := NewFaultStore(NewMemStore(), FaultConfig{
		Seed:  1,
		Rules: []FaultRule{{Op: FaultOpDelete, Permanent: true}},
	})
	err := fs.Delete("k")
	if err == nil {
		t.Fatal("rule with zero ErrRate should fire on every match")
	}
	if IsTransient(err) {
		// Permanent injections must not be retried by RetryStore.
		var te *TransientError
		if errors.As(err, &te) {
			t.Fatal("permanent fault wrapped as TransientError")
		}
	}
}

func TestFaultHook(t *testing.T) {
	fs := NewFaultStore(NewMemStore(), FaultConfig{Seed: 1})
	var seen []string
	fs.SetHook(func(op FaultOp, key string) error {
		seen = append(seen, string(op)+":"+key)
		if strings.Contains(key, "poison") {
			return errors.New("hook says no")
		}
		return nil
	})
	if err := fs.Put("ok", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Put("poison", []byte("v")); err == nil || err.Error() != "hook says no" {
		t.Fatalf("hook error not surfaced: %v", err)
	}
	if _, err := fs.Get("poison"); err == nil {
		t.Fatal("hook should also gate reads")
	}
	fs.SetHook(nil)
	if err := fs.Put("poison", []byte("v")); err != nil {
		t.Fatalf("uninstalled hook still firing: %v", err)
	}
	if len(seen) != 3 {
		t.Errorf("hook saw %d ops, want 3", len(seen))
	}
}

func TestFaultStoreTransparentWhenQuiet(t *testing.T) {
	mem := NewMemStore()
	fs := NewFaultStore(mem, FaultConfig{Seed: 1})
	if err := fs.Put("a/b", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Get("a/b")
	if err != nil || string(got) != "hello" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	part, err := fs.GetRange("a/b", 1, 3)
	if err != nil || string(part) != "ell" {
		t.Fatalf("GetRange = %q, %v", part, err)
	}
	n, err := fs.Size("a/b")
	if err != nil || n != 5 {
		t.Fatalf("Size = %d, %v", n, err)
	}
	keys, err := fs.List("a/")
	if err != nil || len(keys) != 1 || keys[0] != "a/b" {
		t.Fatalf("List = %v, %v", keys, err)
	}
	if err := fs.Delete("a/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Get("a/b"); !IsNotFound(err) {
		t.Fatalf("post-delete Get = %v, want ErrNotFound", err)
	}
}
