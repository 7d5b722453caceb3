// Command parallellives is the reproduction's one binary. The paper is
// one flow (Figure 1: delegation files + MRT → restore → scan →
// lifetimes → join) published as one dataset with the §9 uses hanging
// off it; each of those is a verb:
//
//	parallellives <verb> [flags] [args]
//	parallellives help [verb]
//
// Every verb runs under one shutdown context: the first SIGINT/SIGTERM
// cancels it (a build aborts between days, a tail commits its in-flight
// day, a server drains), a second one exits immediately. The flag
// groups several verbs share — the simulated world and pipeline knobs,
// the HTTP serving knobs — are each registered by one function in
// flags.go, so a flag means the same thing under every verb.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
)

// verbBody runs a verb once its flags are parsed; args are the
// positional arguments left after them.
type verbBody func(ctx context.Context, args []string, stdout, stderr io.Writer) error

// verbs is the whole command surface, in the order `help` lists it.
// flags registers the verb's flags on fs and returns the body that
// reads them.
var verbs = []struct {
	name, purpose, usage string
	flags                func(fs *flag.FlagSet) verbBody
}{
	{"run", "build the dataset and print the paper's tables and figures (Figure 1 end to end)", runUsage, withPipeline(runVerb)},
	{"serve", "build (-build) and/or serve (-listen) a lifestore snapshot over HTTP", serveUsage, withPipeline(serveVerb)},
	{"shard", "cut a snapshot into N range-sharded snapshot files", shardUsage, shardVerb},
	{"route", "front a fleet of shard servers as one HTTP surface (scatter-gather, failover, hedging)", routeUsage, routeVerb},
	{"stat", "fleet dashboard: one row per replica from one /metrics scrape", statUsage, statVerb},
	{"load", "open-loop load generator against a serve or route tier; one JSON result row", loadUsage, loadVerb},
	{"watch", "build the dataset and print the §9 anomaly feed, or answer one -check", watchUsage, withPipeline(watchVerb)},
	{"tail", "crash-safe streaming daemon: follow a growing day directory, checkpoint, publish snapshots", tailUsage, withPipeline(tailVerb)},
	{"feed", "publish simulated collector days into a day directory for tail to follow", feedUsage, feedVerb},
	{"delegdump", "inspect, validate and diff RIR delegation files", delegdumpUsage, delegdumpVerb},
	{"mrtdump", "print MRT archives (RFC 6396) in a human-readable form", mrtdumpUsage, mrtdumpVerb},
}

// errUsage marks a command-line mistake that has already been explained
// on stderr together with the usage: main exits 2 without repeating it.
var errUsage = errors.New("usage")

func main() {
	// One cancellation root for every verb, installed before any
	// long-running work so an interrupt during a build cancels promptly
	// instead of waiting for the 17-year window to finish.
	ctx, cancel := context.WithCancel(context.Background())
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "parallellives: signal received, shutting down (send again to force)")
		cancel()
		<-sigc
		fmt.Fprintln(os.Stderr, "parallellives: forced exit")
		os.Exit(1)
	}()

	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "parallellives:", err)
		os.Exit(1)
	}
}

// run parses args[0]'s flags and runs that verb. It is the whole CLI
// in-process: main adds only the signal context and the exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		listVerbs(stderr)
		return errUsage
	}
	name, rest := args[0], args[1:]
	if name == "help" || name == "-h" || name == "-help" || name == "--help" {
		if len(rest) == 0 {
			listVerbs(stdout)
			return nil
		}
		name, rest = rest[0], []string{"-h"}
	}
	for _, v := range verbs {
		if v.name != name {
			continue
		}
		fs := flag.NewFlagSet("parallellives "+name, flag.ContinueOnError)
		fs.SetOutput(stderr)
		fs.Usage = func() {
			fmt.Fprint(stderr, v.usage, "\nFlags:\n")
			fs.PrintDefaults()
		}
		body := v.flags(fs)
		if err := fs.Parse(rest); err != nil {
			if err != flag.ErrHelp {
				err = errUsage // the flag package has printed the problem and the usage
			}
			return err
		}
		if err := body(ctx, fs.Args(), stdout, stderr); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	fmt.Fprintf(stderr, "parallellives: unknown verb %q\n", name)
	listVerbs(stderr)
	return errUsage
}

func listVerbs(w io.Writer) {
	fmt.Fprintln(w, "usage: parallellives <verb> [flags] [args]")
	fmt.Fprintln(w)
	for _, v := range verbs {
		fmt.Fprintf(w, "  %-10s %s\n", v.name, v.purpose)
	}
	fmt.Fprintln(w, "\n`parallellives help <verb>` prints a verb's description and flags.")
}
