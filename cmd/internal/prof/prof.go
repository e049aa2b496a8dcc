// Package prof holds the -cpuprofile/-memprofile plumbing the gpufi
// commands share.
package prof

import (
	"log"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start starts a CPU profile into cpu and arranges a heap profile into
// mem, both optional (empty = off). The returned stop function finalises
// both and must run before the process exits.
func Start(cpu, mem string) (stop func(), err error) {
	var cpuFile *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				log.Print(err)
				return
			}
			defer f.Close()
			runtime.GC() // materialise the retained-heap picture
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Print(err)
			}
		}
	}, nil
}
