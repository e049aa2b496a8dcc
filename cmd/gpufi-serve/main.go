// Command gpufi-serve exposes the campaign job service over HTTP: submit
// RTL-characterisation, HPC-injection and CNN-injection campaigns as
// queued jobs, watch their progress, cancel them, and let interrupted
// jobs resume deterministically from their checkpoint journal after a
// restart.
//
// Usage:
//
//	gpufi-serve [-addr :8080] [-dir data/jobs] [-jobs N]
//	            [-engine-workers N (a job's CPU budget)] [-checkpoint 2s]
//	            [-fabric] [-lease 30s] [-local-units]
//	gpufi-serve -worker -coordinator URL [-worker-name NAME]
//	            [-worker-parallel N] [-engine-workers N]
//
// API:
//
//	POST   /jobs             submit a campaign (see internal/jobs.Request)
//	GET    /jobs             list jobs
//	GET    /jobs/{id}        status + result
//	GET    /jobs/{id}/events server-sent progress events
//	DELETE /jobs/{id}        cancel
//	GET    /healthz          liveness
//	POST   /fabric/v1/...    worker protocol (with -fabric; see internal/fabric)
//	GET    /fabric/v1/status fabric worker/lease state (with -fabric)
//
// With -fabric the server becomes a campaign coordinator: characterize
// jobs' units are leased to registered workers (remote gpufi-serve
// processes started with -worker) and merged back bit-identically to a
// single-node run. An in-process worker keeps campaigns progressing even
// with zero remote workers (disable with -local-units=false).
//
// With -worker the process runs no HTTP server and no job queue: it
// registers with the coordinator at -coordinator, leases units, executes
// them with the local engines, and streams results back until killed.
//
// SIGINT/SIGTERM shut down gracefully: in-flight jobs checkpoint and are
// re-queued on the next start, resuming bit-identically.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"

	"gpufi/internal/fabric"
	"gpufi/internal/jobs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gpufi-serve: ")

	var (
		addr          = flag.String("addr", ":8080", "HTTP listen address")
		dir           = flag.String("dir", "data/jobs", "checkpoint journal directory (empty disables persistence)")
		nJobs         = flag.Int("jobs", runtime.NumCPU(), "concurrent job slots")
		engineWorkers = flag.Int("engine-workers", 1, "one job's CPU budget: engine workers of an hpc/cnn unit, split over a characterize job's units in flight")
		checkpoint    = flag.Duration("checkpoint", 2*time.Second, "progress checkpoint interval")

		fabricMode = flag.Bool("fabric", false, "run as campaign coordinator: distribute characterize units to fabric workers")
		lease      = flag.Duration("lease", 30*time.Second, "fabric lease timeout before a unit is re-leased (with -fabric)")
		localUnits = flag.Bool("local-units", true, "with -fabric, also execute units in-process so campaigns progress without remote workers")

		workerMode     = flag.Bool("worker", false, "run as a fabric worker instead of a server")
		coordinator    = flag.String("coordinator", "", "coordinator base URL, e.g. http://host:8080 (with -worker)")
		workerName     = flag.String("worker-name", "", "worker display name shown in coordinator status (default: hostname)")
		workerParallel = flag.Int("worker-parallel", runtime.NumCPU(), "units executed concurrently by this worker (with -worker)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *workerMode {
		runWorker(ctx, *coordinator, *workerName, *workerParallel, *engineWorkers)
		return
	}

	var coord *fabric.Coordinator
	if *fabricMode {
		coord = fabric.NewCoordinator(fabric.CoordinatorConfig{
			LeaseTimeout: *lease,
			Logf:         log.Printf,
		})
	}

	svc, err := jobs.New(jobs.Config{
		Dir:             *dir,
		Workers:         *nJobs,
		EngineWorkers:   *engineWorkers,
		CheckpointEvery: *checkpoint,
		Fabric:          coord,
		Logf:            log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}

	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())

	var localWG sync.WaitGroup
	localCtx, stopLocal := context.WithCancel(context.Background())
	defer stopLocal()
	if coord != nil {
		mux.Handle("/fabric/v1/", coord.Handler())
		if *localUnits {
			localWG.Add(1)
			go func() {
				defer localWG.Done()
				err := fabric.RunWorker(localCtx, coord, fabric.WorkerConfig{
					Name:          "local",
					EngineWorkers: *engineWorkers,
					Parallel:      *nJobs,
					Logf:          log.Printf,
				})
				if err != nil && localCtx.Err() == nil {
					log.Printf("in-process fabric worker: %v", err)
				}
			}()
		}
		log.Printf("fabric coordinator enabled (lease %s, in-process units: %v)", *lease, *localUnits)
	}

	srv := &http.Server{Addr: *addr, Handler: mux}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("listening on %s (%d job slots, journal %q)", *addr, *nJobs, *dir)

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Printf("signal received; draining connections and checkpointing jobs...")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	// Order matters: stop the job service first so running jobs observe
	// cancellation and re-queue, then the in-process worker, then the
	// coordinator (so Await never sees ErrClosed with a live job context).
	svc.Close()
	stopLocal()
	localWG.Wait()
	if coord != nil {
		coord.Close()
	}
	log.Printf("stopped; unfinished jobs will resume on the next start")
}

// runWorker runs the process as a fabric worker until the context ends.
func runWorker(ctx context.Context, coordinator, name string, parallel, engineWorkers int) {
	if coordinator == "" {
		log.Fatal("-worker requires -coordinator URL")
	}
	if name == "" {
		name, _ = os.Hostname()
	}
	tr := fabric.NewHTTPTransport(coordinator)
	log.Printf("worker %q connecting to %s (%d parallel units)", name, coordinator, parallel)
	err := fabric.RunWorker(ctx, tr, fabric.WorkerConfig{
		Name:          name,
		EngineWorkers: engineWorkers,
		Parallel:      parallel,
		Logf:          log.Printf,
	})
	if err != nil && !errors.Is(err, context.Canceled) {
		log.Fatal(err)
	}
	log.Printf("worker stopped")
}
