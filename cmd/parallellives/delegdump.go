package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"parallellives/internal/asn"
	"parallellives/internal/delegation"
)

const delegdumpUsage = `parallellives delegdump [-records|-strict] file ...
parallellives delegdump -diff fileA fileB

Inspects, validates and diffs RIR delegation files: one summary per
file (registry, format, serial, window, ASN counts by status, malformed
lines), optionally the asn records themselves, or the asn-record
differences between two files.
`

func delegdumpVerb(fs *flag.FlagSet) verbBody {
	var (
		records = fs.Bool("records", false, "list asn records")
		strict  = fs.Bool("strict", false, "fail on the first malformed line")
		diff    = fs.Bool("diff", false, "diff two files' asn records")
	)
	return func(ctx context.Context, paths []string, stdout, stderr io.Writer) error {
		switch {
		case *diff && len(paths) == 2:
			return delegDiff(stdout, paths[0], paths[1], *strict)
		case len(paths) >= 1:
			for _, path := range paths {
				if err := delegSummary(stdout, path, *strict, *records); err != nil {
					return err
				}
			}
			return nil
		}
		fs.Usage()
		return errUsage
	}
}

func parseDelegation(path string, strict bool) (*delegation.File, []delegation.LineError, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	if strict {
		parsed, err := delegation.Parse(f)
		return parsed, nil, err
	}
	parsed, errs := delegation.ParseLenient(f)
	if parsed == nil {
		return nil, errs, fmt.Errorf("%s: unusable file (%d errors)", path, len(errs))
	}
	return parsed, errs, nil
}

func delegSummary(out io.Writer, path string, strict, records bool) error {
	f, errs, err := parseDelegation(path, strict)
	if err != nil {
		return err
	}
	format := "regular"
	if f.Extended {
		format = "extended"
	}
	fmt.Fprintf(out, "%s: %s %s file, serial %s, window %s..%s\n",
		path, f.Registry, format, f.Serial, f.Start, f.End)
	var byStatus [4]int
	units := 0
	for _, rec := range f.ASNs {
		byStatus[rec.Status] += rec.Count
		units += rec.Count
	}
	fmt.Fprintf(out, "  asn records: %d (%d ASNs) — allocated %d, assigned %d, reserved %d, available %d\n",
		len(f.ASNs), units,
		byStatus[delegation.StatusAllocated], byStatus[delegation.StatusAssigned],
		byStatus[delegation.StatusReserved], byStatus[delegation.StatusAvailable])
	if len(f.Other) > 0 {
		fmt.Fprintf(out, "  other resource lines: %d\n", len(f.Other))
	}
	for _, e := range errs {
		fmt.Fprintf(out, "  malformed: %v\n", e)
	}
	if records {
		for _, rec := range f.ASNs {
			fmt.Fprintf(out, "  %s\n", rec.Line(f.Extended))
		}
	}
	return nil
}

func delegDiff(out io.Writer, pathA, pathB string, strict bool) error {
	fa, _, err := parseDelegation(pathA, strict)
	if err != nil {
		return err
	}
	fb, _, err := parseDelegation(pathB, strict)
	if err != nil {
		return err
	}
	a := delegIndex(fa)
	b := delegIndex(fb)
	added, removed, changed := 0, 0, 0
	for x, rb := range b {
		ra, ok := a[x]
		switch {
		case !ok:
			fmt.Fprintf(out, "+ %s\n", rb.Line(true))
			added++
		case ra != rb:
			fmt.Fprintf(out, "~ %s -> %s\n", ra.Line(true), rb.Line(true))
			changed++
		}
	}
	for x, ra := range a {
		if _, ok := b[x]; !ok {
			fmt.Fprintf(out, "- %s\n", ra.Line(true))
			removed++
		}
	}
	fmt.Fprintf(out, "diff: %d added, %d removed, %d changed\n", added, removed, changed)
	return nil
}

func delegIndex(f *delegation.File) map[asn.ASN]delegation.Record {
	out := make(map[asn.ASN]delegation.Record, len(f.ASNs))
	for _, rec := range f.Expand() {
		rec.Registry = f.Registry
		out[rec.ASN] = rec
	}
	return out
}
