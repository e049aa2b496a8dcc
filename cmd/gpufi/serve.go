package main

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"gpufi/internal/fabric"
	"gpufi/internal/jobs"
)

// runServe exposes the campaign job service over HTTP: submit
// RTL-characterisation, HPC-injection and CNN-injection campaigns as
// queued jobs, watch their progress, cancel them, and let interrupted
// jobs resume deterministically from their checkpoint journal after a
// restart. The API is jobs.Service.Handler's, and with -fabric the
// fabric.Coordinator's worker protocol and status under /fabric/v1/.
//
// With -fabric the server becomes a campaign coordinator: characterize
// jobs' units are leased to registered workers (remote `gpufi serve
// -worker` processes) and merged back bit-identically to a single-node
// run. An in-process worker keeps campaigns progressing even with zero
// remote workers (disable with -local-units=false).
//
// With -worker the process runs no HTTP server and no job queue: it
// registers with the coordinator at -coordinator, leases units, executes
// them with the local engines, and streams results back until killed.
//
// When ctx ends the server shuts down gracefully: in-flight jobs
// checkpoint and are re-queued on the next start, resuming
// bit-identically.
func runServe(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs, lg := command("serve", stderr)
	var (
		addr          = fs.String("addr", ":8080", "HTTP listen address")
		dir           = fs.String("dir", "data/jobs", "checkpoint journal directory (empty disables persistence)")
		nJobs         = fs.Int("jobs", runtime.NumCPU(), "concurrent job slots")
		engineWorkers = fs.Int("engine-workers", 1, "one job's CPU budget: engine workers of an hpc/cnn unit, split over a characterize job's units in flight")
		checkpoint    = fs.Duration("checkpoint", 2*time.Second, "progress checkpoint interval")

		fabricMode = fs.Bool("fabric", false, "run as campaign coordinator: distribute characterize units to fabric workers")
		lease      = fs.Duration("lease", 30*time.Second, "fabric lease timeout before a unit is re-leased (with -fabric)")
		localUnits = fs.Bool("local-units", true, "with -fabric, also execute units in-process so campaigns progress without remote workers")

		workerMode     = fs.Bool("worker", false, "run as a fabric worker instead of a server")
		coordinator    = fs.String("coordinator", "", "coordinator base URL, e.g. http://host:8080 (with -worker)")
		workerName     = fs.String("worker-name", "", "worker display name shown in coordinator status (default: hostname)")
		workerParallel = fs.Int("worker-parallel", runtime.NumCPU(), "units executed concurrently by this worker (with -worker)")
	)
	if err := parse(fs, args); err != nil {
		return err
	}

	if *workerMode {
		if *coordinator == "" {
			return errors.New("-worker requires -coordinator URL")
		}
		name := *workerName
		if name == "" {
			name, _ = os.Hostname()
		}
		lg.Printf("worker %q connecting to %s (%d parallel units)", name, *coordinator, *workerParallel)
		err := fabric.RunWorker(ctx, fabric.NewHTTPTransport(*coordinator), fabric.WorkerConfig{
			Name:          name,
			EngineWorkers: *engineWorkers,
			Parallel:      *workerParallel,
			Logf:          lg.Printf,
		})
		if err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
		lg.Printf("worker stopped")
		return nil
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer ln.Close()

	var coord *fabric.Coordinator
	if *fabricMode {
		coord = fabric.NewCoordinator(fabric.CoordinatorConfig{
			LeaseTimeout: *lease,
			Logf:         lg.Printf,
		})
		defer coord.Close()
	}

	svc, err := jobs.New(jobs.Config{
		Dir:             *dir,
		Workers:         *nJobs,
		EngineWorkers:   *engineWorkers,
		CheckpointEvery: *checkpoint,
		Fabric:          coord,
		Logf:            lg.Printf,
	})
	if err != nil {
		return err
	}

	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())

	var localWG sync.WaitGroup
	localCtx, stopLocal := context.WithCancel(context.Background())
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
					Logf:          lg.Printf,
				})
				if err != nil && localCtx.Err() == nil {
					lg.Printf("in-process fabric worker: %v", err)
				}
			}()
		}
		lg.Printf("fabric coordinator enabled (lease %s, in-process units: %v)", *lease, *localUnits)
	}

	srv := &http.Server{Handler: mux}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	lg.Printf("listening on %s (%d job slots, journal %q)", ln.Addr(), *nJobs, *dir)

	select {
	case err = <-errCh:
	case <-ctx.Done():
		lg.Printf("signal received; draining connections and checkpointing jobs...")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			lg.Printf("http shutdown: %v", err)
		}
	}
	// Order matters: stop the job service first so running jobs observe
	// cancellation and re-queue, then the in-process worker, and only then
	// (deferred) the coordinator, so Await never sees ErrClosed with a
	// live job context.
	svc.Close()
	stopLocal()
	localWG.Wait()
	if err != nil {
		return err
	}
	lg.Printf("stopped; unfinished jobs will resume on the next start")
	return nil
}
