package labelstore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"supg/internal/framelog"
)

// walBytes returns a log holding the payloads, framed as the WAL
// frames them.
func walBytes(f *testing.F, payloads ...[]byte) []byte {
	f.Helper()
	path := filepath.Join(f.TempDir(), "seed.wal")
	l, err := framelog.Open(path, walFormat, func([]byte) error { return nil })
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range payloads {
		if err := l.Append(p); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return raw
}

// FuzzWALReplay feeds arbitrary bytes to the WAL replay. Any input must
// open without a panic and keep a prefix of whole frames: the file is
// cut to it, and WALRecords counts its frames. Reopening the kept log
// gives the same Len and Stats.
func FuzzWALReplay(f *testing.F) {
	golden, err := os.ReadFile(goldenWAL)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:40]) // torn mid-frame
	def := encodeDef(1, Key{"t", "o"})
	f.Add(walBytes(f, encodeLabel(1, 3, true)))                            // label of an undefined cache
	f.Add(walBytes(f, append(def, 9)))                                     // def with a trailing byte
	f.Add(walBytes(f, def, []byte{recLabel, 1, 2}))                        // label without its value
	f.Add(walBytes(f, def, encodeLabel(1, 3, true), []byte{recTombTable})) // tombstone without a name
	f.Add(walBytes(f, []byte{9}))                                          // unknown record type
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	corrupt := bytes.Clone(golden)
	corrupt[len(corrupt)-1] ^= 0xFF
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "labels.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Options{WALPath: path})
		if err != nil {
			t.Fatal(err)
		}
		st, n := s.Stats(), s.Len()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		frames, end, err := framelog.Scan(bytes.NewReader(kept), walFormat, func([]byte) error { return nil })
		if err != nil || frames != st.WALRecords || end != int64(len(kept)) {
			t.Fatalf("kept %d bytes holding %d whole frames to offset %d; WALRecords %d", len(kept), frames, end, st.WALRecords)
		}
		// Open compacts a log dominated by dead frames (its one sync);
		// otherwise it only cuts the tail.
		compacted := st.WALSyncs > 0
		if !compacted && !bytes.HasPrefix(data, kept) {
			t.Fatal("the kept log is not a prefix of the input")
		}
		r, err := Open(Options{WALPath: path})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if r.Len() != n || (!compacted && r.Stats() != st) {
			t.Fatalf("reopen: %d labels, %+v; first open: %d labels, %+v", r.Len(), r.Stats(), n, st)
		}
	})
}
