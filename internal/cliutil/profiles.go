package cliutil

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Profiles is the resolved value of the shared profiling flag trio
// (-cpuprofile, -memprofile, -trace). Empty paths mean "off"; the flags
// cost nothing unless set.
type Profiles struct {
	CPU   string
	Mem   string
	Trace string
}

// RegisterProfiles registers the -cpuprofile/-memprofile/-trace trio on fs
// and returns the destination the parsed values land in.
func RegisterProfiles(fs *flag.FlagSet) *Profiles {
	return registerProfiles(fs, "trace")
}

// RegisterProfilesExecTrace is RegisterProfiles with the execution-trace
// flag named -exectrace, for commands where -trace already means something
// else (ddsim's pipeline trace).
func RegisterProfilesExecTrace(fs *flag.FlagSet) *Profiles {
	return registerProfiles(fs, "exectrace")
}

func registerProfiles(fs *flag.FlagSet, traceFlag string) *Profiles {
	p := &Profiles{}
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&p.Mem, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&p.Trace, traceFlag, "", "write a runtime execution trace to this file")
	return p
}

// Start begins the requested profiles and returns the function to run when
// the profiled work ends: it stops the CPU profile and the execution trace
// and writes the heap profile (after a GC, so it reflects live objects).
// Start fails fast on unwritable paths; stop is always safe to call.
func (p *Profiles) Start() (stop func(), err error) {
	var stops []func()
	stop = func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	if p.CPU != "" {
		f, err := os.Create(p.CPU)
		if err != nil {
			return stop, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return stop, fmt.Errorf("cpuprofile: %w", err)
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if p.Trace != "" {
		f, err := os.Create(p.Trace)
		if err != nil {
			return stop, fmt.Errorf("trace: %w", err)
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			return stop, fmt.Errorf("trace: %w", err)
		}
		stops = append(stops, func() {
			trace.Stop()
			f.Close()
		})
	}
	if p.Mem != "" {
		path := p.Mem
		stops = append(stops, func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		})
	}
	return stop, nil
}
