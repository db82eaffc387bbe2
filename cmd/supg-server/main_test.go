package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"supg/internal/server"
)

// parse runs parseFlags on a fresh flag set.
func parse(t *testing.T, args ...string) (processFlags, server.Options, error) {
	t.Helper()
	fs := flag.NewFlagSet("supg-server", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseFlags(fs, args)
}

// TestFlagListing pins every flag's name, default and usage string
// against testdata/flags.txt (one "name<TAB>default<TAB>usage" line per
// flag, in name order), so binding flags straight to server.Options
// changes no part of the command line.
func TestFlagListing(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "flags.txt"))
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("supg-server", flag.ContinueOnError)
	bindFlags(fs, &processFlags{}, &server.Options{})
	var got strings.Builder
	fs.VisitAll(func(f *flag.Flag) {
		got.WriteString(f.Name + "\t" + f.DefValue + "\t" + f.Usage + "\n")
	})
	if got.String() != string(want) {
		t.Errorf("flag listing changed\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestParseFlags covers the command line the end-to-end benchmark's
// restart workload boots the server with, and the rule that
// -persist-dir supplies the default -label-wal.
func TestParseFlags(t *testing.T) {
	p, opts, err := parse(t, "-addr", "127.0.0.1:18080", "-seed", "7", "-persist-dir", "pd",
		"-preload", "night", "-preload-proxy-variants")
	if err != nil {
		t.Fatal(err)
	}
	if p.addr != "127.0.0.1:18080" || p.seed != 7 || p.preload != "night" || !p.variants {
		t.Fatalf("process flags %+v", p)
	}
	if opts.PersistDir != "pd" || opts.LabelWALPath != filepath.Join("pd", "labels.wal") {
		t.Fatalf("persist dir %q, label WAL %q", opts.PersistDir, opts.LabelWALPath)
	}
	if _, opts, err := parse(t, "-persist-dir", "pd", "-label-wal", "elsewhere.wal"); err != nil || opts.LabelWALPath != "elsewhere.wal" {
		t.Fatalf("explicit label WAL replaced by %q (%v)", opts.LabelWALPath, err)
	}
	if _, opts, err := parse(t); err != nil || opts.LabelWALPath != "" {
		t.Fatalf("label WAL %q without a persist dir (%v)", opts.LabelWALPath, err)
	}
	if _, _, err := parse(t, "-label-cache-shards", "4"); err == nil {
		t.Fatal("the deleted -label-cache-shards flag still parses")
	}
}
