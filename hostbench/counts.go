package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// checkRecordedCounts makes two runs of one build repeat their
// deterministic counts exactly. The first run of a build records its
// per-job counts in dir, keyed by the executable's digest, the workload
// and the input seed; every later run of the same build compares its
// counts with that record.
func checkRecordedCounts(dir, workload string, appSeed int64, counts map[string]kernelCounts) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(bin)
	path := filepath.Join(dir, fmt.Sprintf("%x-%s-%d.json", sum[:8], workload, appSeed))
	if b, err := os.ReadFile(path); err == nil {
		var prev map[string]kernelCounts
		if err := json.Unmarshal(b, &prev); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if len(prev) != len(counts) {
			return fmt.Errorf("%s records %d jobs, this run has %d", path, len(prev), len(counts))
		}
		return compareCounts(prev, counts)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(counts, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
