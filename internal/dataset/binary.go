package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary interchange format. Large simulated datasets (the paper's
// night-street has ~10^6 frames) round-trip an order of magnitude
// faster and 3x smaller than CSV:
//
//	magic   [8]byte  "SUPGDS1\n"
//	count   uint64   little-endian record count
//	scores  count x float64 (little-endian IEEE 754)
//	labels  ceil(count/8) bytes, LSB-first bit per record
var binaryMagic = [8]byte{'S', 'U', 'P', 'G', 'D', 'S', '1', '\n'}

// WriteBinary serializes d in the binary interchange format.
func WriteBinary(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return fmt.Errorf("dataset: write magic: %w", err)
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(d.Len()))
	if _, err := bw.Write(buf[:]); err != nil {
		return fmt.Errorf("dataset: write count: %w", err)
	}
	for i := 0; i < d.Len(); i++ {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(d.Score(i)))
		if _, err := bw.Write(buf[:]); err != nil {
			return fmt.Errorf("dataset: write score %d: %w", i, err)
		}
	}
	bits := make([]byte, (d.Len()+7)/8)
	for i := 0; i < d.Len(); i++ {
		if d.TrueLabel(i) {
			bits[i/8] |= 1 << (i % 8)
		}
	}
	if _, err := bw.Write(bits); err != nil {
		return fmt.Errorf("dataset: write labels: %w", err)
	}
	return bw.Flush()
}

// maxRecords caps the declared record count (~8B records) as a sanity
// check against corrupt headers.
const maxRecords = 1 << 33

// chunkRecords is the incremental-allocation granularity of ReadBinary.
const chunkRecords = 1 << 16

// BinarySize returns the exact byte length of n records in the binary
// interchange format: magic + count + scores + label bits.
func BinarySize(n int) int64 {
	return 16 + 8*int64(n) + int64((n+7)/8)
}

// readBinaryHeader consumes and validates the magic + count header.
func readBinaryHeader(br io.Reader) (int, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, fmt.Errorf("dataset: read header: %w", err)
	}
	if [8]byte(hdr[:8]) != binaryMagic {
		return 0, fmt.Errorf("dataset: bad magic %q (not a SUPG binary dataset)", hdr[:8])
	}
	count := binary.LittleEndian.Uint64(hdr[8:])
	if count == 0 || count > maxRecords {
		return 0, fmt.Errorf("dataset: implausible record count %d", count)
	}
	return int(count), nil
}

// readBinaryBody decodes n scores and labels from br into the provided
// slices, which must have length n. Scores are read in bulk chunks and
// decoded in place — no per-record reads, no slice growth.
func readBinaryBody(br io.Reader, scores []float64, labels []bool) error {
	n := len(scores)
	chunk := make([]byte, min(n, chunkRecords)*8)
	for done := 0; done < n; {
		want := min(n-done, chunkRecords) * 8
		if _, err := io.ReadFull(br, chunk[:want]); err != nil {
			return fmt.Errorf("dataset: read score %d: %w", done, err)
		}
		for off := 0; off < want; off += 8 {
			scores[done] = math.Float64frombits(binary.LittleEndian.Uint64(chunk[off:]))
			done++
		}
	}
	nb := (n + 7) / 8
	for done := 0; done < nb; {
		want := min(nb-done, len(chunk))
		if _, err := io.ReadFull(br, chunk[:want]); err != nil {
			return fmt.Errorf("dataset: read labels: %w", err)
		}
		for _, b := range chunk[:want] {
			base := done * 8
			for bit := 0; bit < 8 && base+bit < n; bit++ {
				labels[base+bit] = b&(1<<bit) != 0
			}
			done++
		}
	}
	return nil
}

// ReadBinary parses a dataset in the binary interchange format.
//
// Scores are allocated incrementally rather than trusting the header's
// count up front: a corrupt or hostile header can claim 2^33 records
// (64 GiB of scores) while the stream holds a few bytes, and the parse
// must fail with a read error, not an OOM. Callers that know the
// stream's byte length (an upload's Content-Length, a file's size)
// should use ReadBinarySized, which cross-checks the header against the
// length and decodes straight into exact-size buffers.
func ReadBinary(r io.Reader, name string) (*Dataset, error) {
	br := bufio.NewReader(r)
	n, err := readBinaryHeader(br)
	if err != nil {
		return nil, err
	}
	scores := make([]float64, 0, min(n, chunkRecords))
	chunk := make([]byte, min(n, chunkRecords)*8)
	for len(scores) < n {
		want := min(n-len(scores), chunkRecords) * 8
		if _, err := io.ReadFull(br, chunk[:want]); err != nil {
			return nil, fmt.Errorf("dataset: read score %d: %w", len(scores), err)
		}
		for off := 0; off < want; off += 8 {
			scores = append(scores, math.Float64frombits(binary.LittleEndian.Uint64(chunk[off:])))
		}
	}
	bits := make([]byte, 0, min((n+7)/8, chunkRecords))
	for len(bits) < (n+7)/8 {
		want := min((n+7)/8-len(bits), len(chunk))
		if _, err := io.ReadFull(br, chunk[:want]); err != nil {
			return nil, fmt.Errorf("dataset: read labels: %w", err)
		}
		bits = append(bits, chunk[:want]...)
	}
	labels := make([]bool, n)
	for i := 0; i < n; i++ {
		labels[i] = bits[i/8]&(1<<(i%8)) != 0
	}
	return New(name, scores, labels)
}

// ReadBinaryInto parses a dataset in the binary interchange format,
// decoding into the caller's buffers instead of growing fresh slices —
// the no-double-copy path for callers that already know the record
// count. scores and labels are used from index 0 up to their capacity;
// a stream declaring more records than cap(scores) or cap(labels) is
// rejected before any allocation, so the header cannot force an OOM.
// The returned dataset retains (re-sliced views of) the buffers.
func ReadBinaryInto(r io.Reader, name string, scores []float64, labels []bool) (*Dataset, error) {
	br := bufio.NewReader(r)
	n, err := readBinaryHeader(br)
	if err != nil {
		return nil, err
	}
	if n > cap(scores) || n > cap(labels) {
		return nil, fmt.Errorf("dataset: %d records exceed the provided %d-score/%d-label capacity",
			n, cap(scores), cap(labels))
	}
	scores, labels = scores[:n], labels[:n]
	if err := readBinaryBody(br, scores, labels); err != nil {
		return nil, err
	}
	return New(name, scores, labels)
}

// ReadBinarySized is ReadBinary for callers that know the stream's
// exact byte length: when size matches the header's implied length the
// columns are allocated exactly once at full size and filled with bulk
// reads (no growth reallocations); a mismatched or unknown size falls
// back to the incremental path.
func ReadBinarySized(r io.Reader, name string, size int64) (*Dataset, error) {
	// Invert BinarySize: n is the unique count whose encoding is size
	// bytes long (the per-record cost is 8 bytes + 1 bit).
	if size > 16 {
		n := int(((size - 16) * 8) / 65)
		for cand := n; cand <= n+2 && int64(cand) <= maxRecords; cand++ {
			if cand > 0 && BinarySize(cand) == size {
				return ReadBinaryInto(r, name, make([]float64, 0, cand), make([]bool, 0, cand))
			}
		}
	}
	return ReadBinary(r, name)
}
