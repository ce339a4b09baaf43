package main

import (
	"path/filepath"
	"testing"
)

// TestRecordedCountsRepeat shows that a run of the same build with
// different deterministic counts is caught.
func TestRecordedCountsRepeat(t *testing.T) {
	dir := t.TempDir()
	counts := map[string]kernelCounts{
		"LU/SC/p16":   {Events: 10, Scheduled: 12, ActorScheduled: 11, Advances: 3, SimRefs: 5},
		"MP3D/SC/p16": {Events: 20, Scheduled: 22, ActorScheduled: 21, Advances: 4, SimRefs: 6},
	}
	if err := checkRecordedCounts(dir, "w", 0, counts); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*-w-0.json")); len(files) != 1 {
		t.Fatalf("first run recorded %v, want one file", files)
	}
	if err := checkRecordedCounts(dir, "w", 0, counts); err != nil {
		t.Fatalf("repeat with equal counts: %v", err)
	}
	changed := map[string]kernelCounts{"LU/SC/p16": counts["LU/SC/p16"], "MP3D/SC/p16": counts["MP3D/SC/p16"]}
	c := changed["MP3D/SC/p16"]
	c.Events++
	changed["MP3D/SC/p16"] = c
	if err := checkRecordedCounts(dir, "w", 0, changed); err == nil {
		t.Fatal("a changed event count was not caught")
	}
	delete(changed, "MP3D/SC/p16")
	if err := checkRecordedCounts(dir, "w", 0, changed); err == nil {
		t.Fatal("a missing job was not caught")
	}
	// Another input seed has its own record.
	if err := checkRecordedCounts(dir, "w", 7, changed); err != nil {
		t.Fatalf("first run of another input: %v", err)
	}
}
