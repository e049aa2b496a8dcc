// Command gpufi runs the paper's two-level fault-injection flow (Fig. 2)
// as one command with five subcommands: rtl (RTL campaigns and the
// syndrome database they write), sw (software campaigns that inject from
// it), serve (the campaign job service), experiments (every table and
// figure of the evaluation) and profile (the Fig. 3 instruction
// profiles). Run gpufi alone for the list and 'gpufi <command> -h' for a
// command's flags.
//
// SIGINT/SIGTERM stop rtl, sw and experiments at the next fault or
// injection boundary with a one-line message, and shut serve down
// gracefully. The exit code is 0 on success, 1 on an error and 2 on a
// command line the subcommand refuses.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
)

// commands maps each subcommand to its entry point.
var commands = map[string]func(ctx context.Context, args []string, stdout, stderr io.Writer) error{
	"rtl":         runRTL,
	"sw":          runSW,
	"serve":       runServe,
	"experiments": runExperiments,
	"profile":     runProfile,
}

const usage = "usage: gpufi <rtl|sw|serve|experiments|profile> [flags]; 'gpufi <command> -h' lists a command's flags\n"

// errUsage reports a command line a subcommand refused after saying why
// on stderr.
var errUsage = errors.New("usage error")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run dispatches args to their subcommand and returns the exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || commands[args[0]] == nil {
		fmt.Fprint(stderr, usage)
		return 2
	}
	err := commands[args[0]](ctx, args[1:], stdout, stderr)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2
	}
	fmt.Fprintf(stderr, "gpufi %s: %v\n", args[0], err)
	return 1
}

// command returns a subcommand's flag set and log, both writing to stderr.
func command(name string, stderr io.Writer) (*flag.FlagSet, *log.Logger) {
	fs := flag.NewFlagSet("gpufi "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs, log.New(stderr, "gpufi "+name+": ", 0)
}

// parse parses a subcommand's flags and refuses leftover arguments.
func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage // the flag set has printed the error and the usage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(fs.Output(), "%s: unexpected argument %q (flags only; see -h)\n", fs.Name(), fs.Arg(0))
		return errUsage
	}
	return nil
}

// interrupted returns err, or, when err is ctx's own error (the run
// stopped because ctx ended), the one-line report of how far it got.
func interrupted(ctx context.Context, err error, format string, args ...any) error {
	if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
		return fmt.Errorf(format, args...)
	}
	return err
}

// startProfile starts a CPU profile into cpu and arranges a heap profile
// into mem, both optional (empty = off). The returned stop function
// finalises both and must run before the process exits.
func startProfile(cpu, mem string) (stop func() error, err error) {
	stopCPU := func() error { return nil }
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stopCPU = func() error { pprof.StopCPUProfile(); return f.Close() }
	}
	return func() error {
		if err := stopCPU(); err != nil || mem == "" {
			return err
		}
		f, err := os.Create(mem)
		if err != nil {
			return err
		}
		runtime.GC() // materialise the retained-heap picture
		return errors.Join(pprof.WriteHeapProfile(f), f.Close())
	}, nil
}
