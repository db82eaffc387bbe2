// Command supg runs a SUPG query (the paper's Figure 3 / 14 SQL
// dialect) against a CSV dataset of proxy scores and labels.
//
// Usage:
//
//	supg -data video.csv -query 'SELECT * FROM data
//	  WHERE data_oracle(frame) = true
//	  ORACLE LIMIT 1000
//	  USING data_proxy(frame)
//	  RECALL TARGET 90%
//	  WITH PROBABILITY 95%'
//
// The CSV must use the interchange layout id,proxy_score,label. The
// table is registered as "data" with UDFs data_oracle / data_proxy.
// Because the CSV carries ground-truth labels, the command also reports
// the achieved precision and recall of the returned set.
//
// Multi-proxy queries: each -aux name=path flag registers an extra
// dataset under its own table name with <name>_oracle / <name>_proxy
// UDFs, so a FUSE clause can combine several proxy columns over the
// primary table (the aux datasets must have at least as many records):
//
//	supg -data video.csv -aux fast=fast.csv \
//	  -query 'SELECT * FROM data
//	  WHERE data_oracle(frame) = true
//	  ORACLE LIMIT 1000
//	  USING FUSE(logistic, data_proxy(frame), fast_proxy(frame)) CALIBRATE 200
//	  RECALL TARGET 90%
//	  WITH PROBABILITY 95%'
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"supg/internal/dataset"
	"supg/internal/engine"
	"supg/internal/metrics"
)

func main() {
	var (
		dataPath  = flag.String("data", "", "CSV dataset (id,proxy_score,label)")
		queryText = flag.String("query", "", "SUPG query text")
		queryFile = flag.String("query-file", "", "file containing the SUPG query")
		seed      = flag.Uint64("seed", 1, "random seed")
		showIDs   = flag.Int("show", 10, "number of returned record ids to print")
	)
	var aux []struct{ name, path string }
	flag.Func("aux", "extra dataset as name=path.csv, registered with <name>_oracle/<name>_proxy UDFs for FUSE clauses (repeatable)", func(v string) error {
		name, path, ok := strings.Cut(v, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("want name=path.csv, got %q", v)
		}
		aux = append(aux, struct{ name, path string }{name, path})
		return nil
	})
	flag.Parse()

	if *dataPath == "" {
		fatalf("missing -data")
	}
	sql := *queryText
	if sql == "" && *queryFile != "" {
		b, err := os.ReadFile(*queryFile)
		if err != nil {
			fatalf("reading query file: %v", err)
		}
		sql = string(b)
	}
	if strings.TrimSpace(sql) == "" {
		fatalf("missing -query or -query-file")
	}

	d, err := loadDataset(*dataPath, "data")
	if err != nil {
		fatalf("%v", err)
	}

	eng, err := engine.Open(*seed, engine.Options{})
	if err != nil {
		fatalf("%v", err)
	}
	eng.RegisterDatasetDefaults("data", d)
	for _, a := range aux {
		ad, err := loadDataset(a.path, a.name)
		if err != nil {
			fatalf("aux dataset %s: %v", a.name, err)
		}
		if ad.Len() < d.Len() {
			fatalf("aux dataset %s has %d records, fewer than the primary's %d", a.name, ad.Len(), d.Len())
		}
		eng.RegisterDatasetDefaults(a.name, ad)
	}

	res, err := eng.ExecuteContext(context.Background(), sql, engine.ExecOptions{})
	if err != nil {
		fatalf("executing query: %v", err)
	}

	eval := metrics.Evaluate(d, res.Indices)
	fmt.Printf("records:            %d\n", d.Len())
	fmt.Printf("returned:           %d\n", len(res.Indices))
	fmt.Printf("proxy threshold:    %g\n", res.Tau)
	fmt.Printf("oracle calls:       %d\n", res.OracleCalls)
	if res.Fusion != "" {
		fmt.Printf("fusion:             %s (%d calibration calls, %d from label cache)\n",
			res.Fusion, res.CalibrationCalls, res.CalibrationCacheHits)
	}
	fmt.Printf("elapsed:            %v (proxy scan %v)\n", res.Elapsed, res.ProxyElapsed)
	fmt.Printf("achieved precision: %.2f%%\n", 100*eval.Precision)
	fmt.Printf("achieved recall:    %.2f%%\n", 100*eval.Recall)
	if *showIDs > 0 && len(res.Indices) > 0 {
		n := *showIDs
		if n > len(res.Indices) {
			n = len(res.Indices)
		}
		fmt.Printf("first %d ids:       %v\n", n, res.Indices[:n])
	}
}

// loadDataset reads a CSV (or .bin binary) dataset from path.
func loadDataset(path, name string) (*dataset.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("opening dataset: %w", err)
	}
	defer f.Close()
	var d *dataset.Dataset
	if strings.HasSuffix(path, ".bin") {
		d, err = dataset.ReadBinary(f, name)
	} else {
		d, err = dataset.ReadCSV(f, name)
	}
	if err != nil {
		return nil, fmt.Errorf("parsing dataset: %w", err)
	}
	return d, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "supg: "+format+"\n", args...)
	os.Exit(1)
}
