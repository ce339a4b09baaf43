package machine

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"latsim/internal/config"
	"latsim/internal/cpu"
	"latsim/internal/msync"
)

// TestRunReleasesProcesses checks that every way a run can end releases
// the goroutines of its application processes: a process still
// suspended when the run stops would otherwise leak and pin the whole
// Machine. The stuck workers poll shared Go state that never changes,
// the way PTHOR polls its task queues, so only unwinding ends them.
func TestRunReleasesProcesses(t *testing.T) {
	never := false
	spin := func(e *cpu.Env) {
		for !never {
			e.SpinWait(4)
		}
	}
	type worker func(e *cpu.Env, pid int, lk *msync.Lock, cancel func())
	cases := []struct {
		name     string
		watchdog bool
		worker   worker
		wantErr  string // error substring; "" means a result
		wantPan  string // panic substring; "" means no panic
	}{
		{
			name:   "finish",
			worker: func(e *cpu.Env, pid int, lk *msync.Lock, cancel func()) { e.Compute(100) },
		},
		{
			name: "cancel",
			worker: func(e *cpu.Env, pid int, lk *msync.Lock, cancel func()) {
				if pid == 0 {
					e.Compute(1000)
					cancel()
				}
				spin(e)
			},
			wantErr: "canceled",
		},
		{
			name:     "watchdog",
			watchdog: true,
			worker:   func(e *cpu.Env, pid int, lk *msync.Lock, cancel func()) { spin(e) },
			wantErr:  "watchdog",
		},
		{
			name: "deadlock",
			worker: func(e *cpu.Env, pid int, lk *msync.Lock, cancel func()) {
				e.Lock(lk)
				e.Lock(lk) // not reentrant: every process ends up stuck
			},
			wantErr: "deadlock",
		},
		{
			name: "process panic",
			worker: func(e *cpu.Env, pid int, lk *msync.Lock, cancel func()) {
				if pid == 3 {
					e.Compute(1000)
					panic("worker failed")
				}
				spin(e)
			},
			wantPan: "sim: process panicked: worker failed",
		},
		{
			name: "kernel-side panic",
			worker: func(e *cpu.Env, pid int, lk *msync.Lock, cancel func()) {
				if pid == 3 {
					e.Compute(1000)
					e.Unlock(lk) // never acquired: msync panics on the kernel side
				}
				spin(e)
			},
			wantPan: "release of a lock that is not held",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var lk *msync.Lock
			app := &testApp{
				name: "leak",
				setup: func(m *Machine) error {
					lk = m.NewLock()
					return nil
				},
				worker: func(e *cpu.Env, pid, n int) { tc.worker(e, pid, lk, cancel) },
			}
			m, err := New(smallCfg(func(c *config.Config) {
				c.Procs = 16
				if tc.watchdog {
					c.MaxCycles = 20_000
				}
			}))
			if err != nil {
				t.Fatal(err)
			}
			pan := func() (pan string) {
				defer func() {
					if r := recover(); r != nil {
						pan = fmt.Sprint(r)
					}
				}()
				_, err = m.RunContext(ctx, app)
				return ""
			}()
			switch {
			case tc.wantPan != "" && !strings.Contains(pan, tc.wantPan):
				t.Fatalf("panic %q, want one containing %q", pan, tc.wantPan)
			case tc.wantPan == "" && pan != "":
				t.Fatalf("unexpected panic: %s", pan)
			case tc.wantPan == "" && tc.wantErr == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("error %v, want one containing %q", err, tc.wantErr)
			}
			// Give the runtime a moment to retire exited goroutines
			// before judging.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("%d goroutines after the run, %d before: processes leaked", n, base)
			}
		})
	}
}
