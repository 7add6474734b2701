package obs

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
)

// CLI bundles the standard observability flags every command in this
// repository exposes (-stats, -stats-json, -stats-deterministic,
// -cpuprofile, -memprofile) and their lifecycle: Register the flags,
// Begin after flag parsing to obtain the (possibly nil) registry and
// start profiling, Finish to stop profiles and flush the sinks.
//
// Finish is idempotent and safe to wire into both the happy path and an
// error-exit path, so partially collected metrics and CPU profiles
// survive failed runs.
type CLI struct {
	Stats         bool
	StatsJSON     string
	Deterministic bool
	CPUProfile    string
	MemProfile    string

	// SummaryTo receives the -stats summary (defaults to os.Stderr).
	SummaryTo io.Writer

	reg     *Registry
	cpuFile *os.File
	finish  sync.Once
}

// Register installs the observability flags on the flag set.
func (c *CLI) Register(fs *flag.FlagSet) {
	fs.BoolVar(&c.Stats, "stats", false, "print a per-stage timing/counter summary to stderr")
	fs.StringVar(&c.StatsJSON, "stats-json", "", "write metrics as JSONL events to this file")
	fs.BoolVar(&c.Deterministic, "stats-deterministic", false,
		"omit wall times and timing histograms from -stats-json (byte-stable baselines)")
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write a pprof heap profile to this file")
}

// Begin starts CPU profiling when requested and returns the registry to
// instrument with: non-nil only when -stats or -stats-json was given, so
// the disabled path stays a nil registry (and therefore free).
func (c *CLI) Begin() (*Registry, error) {
	if c.CPUProfile != "" {
		f, err := os.Create(c.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			_ = f.Close()
			return nil, err
		}
		c.cpuFile = f
	}
	if c.Stats || c.StatsJSON != "" {
		c.reg = NewRegistry()
	}
	return c.reg, nil
}

// Finish stops the CPU profile, writes the heap profile, and flushes the
// summary and JSONL sinks. Only the first call acts.
func (c *CLI) Finish() error {
	var err error
	c.finish.Do(func() { err = c.doFinish() })
	return err
}

func (c *CLI) doFinish() error {
	if c.cpuFile != nil {
		pprof.StopCPUProfile()
		if e := c.cpuFile.Close(); e != nil {
			return e
		}
	}
	if c.MemProfile != "" {
		f, err := os.Create(c.MemProfile)
		if err != nil {
			return err
		}
		runtime.GC() // materialize up-to-date heap statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if c.reg == nil {
		return nil
	}
	if c.Stats {
		out := c.SummaryTo
		if out == nil {
			out = os.Stderr
		}
		if err := c.reg.WriteSummary(out); err != nil {
			return err
		}
	}
	if c.StatsJSON != "" {
		f, err := os.Create(c.StatsJSON)
		if err != nil {
			return err
		}
		werr := c.reg.WriteJSONL(f, JSONLOptions{Deterministic: c.Deterministic})
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("writing %s: %w", c.StatsJSON, werr)
		}
	}
	return nil
}
