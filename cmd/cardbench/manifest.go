package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// runManifest says what exactly was run: enough to repeat it and to tell
// two result files of different commits, machines or flags apart.
type runManifest struct {
	Seed        uint64  `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Trace       int     `json:"trace"`
	Scale       string  `json:"scale"`
	GoVersion   string  `json:"go_version"`
	GOOS        string  `json:"goos"`
	GOARCH      string  `json:"goarch"`
	NProc       int     `json:"nproc"`
	VCSRevision string  `json:"vcs_revision"`
	// LoadAvg1 is the 1-minute load average when the run started: a busy
	// machine explains a timing that will not repeat.
	LoadAvg1 string `json:"load_avg_1m"`
}

func newManifest(opt options, scale string) runManifest {
	m := runManifest{
		Seed: opt.Seed, Seconds: opt.Seconds, Trace: opt.Trace, Scale: scale,
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NProc: opt.NProc, VCSRevision: "unknown", LoadAvg1: "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				m.VCSRevision = s.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			m.LoadAvg1 = f[0]
		}
	}
	return m
}
