// Package trace records and replays per-core memory access traces in a
// compact binary format. The paper's methodology runs from checkpointed
// workload state (FLEXUS "warm system checkpoints"); traces play the same
// role here — a captured workload can be re-run against different
// directory organizations with exactly identical access streams, removing
// generator nondeterminism from comparisons and letting external traces
// drive the simulators.
//
// Format (little-endian):
//
//	magic   [8]byte  "CKDTRC01"
//	cores   uint32
//	count   uint64   number of records
//	records count x {
//	    core   uint8
//	    flags  uint8   bit0 = write, bit1 = instruction fetch
//	    addr   uint64  block address
//	}
//
// Records are buffered through bufio; a trace of 10M accesses is ~100 MB.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"cuckoodir/internal/cmpsim"
	"cuckoodir/internal/workload"
)

var magic = [8]byte{'C', 'K', 'D', 'T', 'R', 'C', '0', '1'}

const (
	flagWrite = 1 << 0
	flagCode  = 1 << 1
)

// Record is one traced access.
type Record struct {
	Core   int
	Access workload.Access
}

// Writer streams trace records to an io.Writer.
type Writer struct {
	w     *bufio.Writer
	raw   io.Writer // the unbuffered writer, for Close's header patch
	start int64     // the header's offset within raw (see NewWriter)
	cores int
	count uint64
	err   error
}

// countOffset is the byte offset of the header's record-count field
// relative to the header start (after the magic and the core count).
const countOffset = 8 + 4

// NewWriter creates a trace writer for a system with the given core
// count. The header's record count is written as zero; Close finalizes
// it in place when the underlying writer supports io.WriterAt (os.File
// does) — otherwise the zero count stays and readers fall back to
// reading until EOF (Reader.Total reports 0).
//
// When w is also an io.Seeker (a file), the header may start at the
// writer's current offset — the patch lands relative to it. A WriterAt
// that is not a Seeker is assumed to receive the header at offset 0.
// Files opened with O_APPEND cannot be patched (WriteAt rejects them);
// Close then reports the error after the flush.
func NewWriter(w io.Writer, cores int) (*Writer, error) {
	if cores <= 0 || cores > 255 {
		return nil, fmt.Errorf("trace: cores = %d out of range", cores)
	}
	tw := &Writer{w: bufio.NewWriterSize(w, 1<<20), raw: w, cores: cores}
	if s, ok := w.(io.Seeker); ok {
		if off, err := s.Seek(0, io.SeekCurrent); err == nil {
			tw.start = off
		}
	}
	if err := tw.writeHeader(0); err != nil {
		return nil, err
	}
	return tw, nil
}

func (t *Writer) writeHeader(count uint64) error {
	if _, err := t.w.Write(magic[:]); err != nil {
		return err
	}
	var buf [12]byte
	binary.LittleEndian.PutUint32(buf[0:4], uint32(t.cores))
	binary.LittleEndian.PutUint64(buf[4:12], count)
	_, err := t.w.Write(buf[:])
	return err
}

// Write appends one record.
func (t *Writer) Write(r Record) error {
	if t.err != nil {
		return t.err
	}
	if r.Core < 0 || r.Core >= t.cores {
		return fmt.Errorf("trace: core %d out of range [0,%d)", r.Core, t.cores)
	}
	var buf [10]byte
	buf[0] = byte(r.Core)
	if r.Access.Write {
		buf[1] |= flagWrite
	}
	if r.Access.Code {
		buf[1] |= flagCode
	}
	binary.LittleEndian.PutUint64(buf[2:], r.Access.Addr)
	if _, err := t.w.Write(buf[:]); err != nil {
		t.err = err
		return err
	}
	t.count++
	return nil
}

// Count returns the number of records written so far.
func (t *Writer) Count() uint64 { return t.count }

// Flush drains buffered records to the underlying writer.
func (t *Writer) Flush() error {
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// Close flushes buffered records and finalizes the header's record
// count: when the underlying writer implements io.WriterAt the count
// field is patched in place, so readers of the finished trace see an
// exact Total. For non-seekable sinks (pipes, network streams, plain
// buffers) the header keeps its zero count and readers fall back to
// reading until EOF — a well-formed but "unknown length" trace.
//
// Close does not close the underlying writer; the Writer must not be
// used afterwards (further Writes would land after a patched header
// without being counted in it).
func (t *Writer) Close() error {
	if err := t.Flush(); err != nil {
		return err
	}
	wa, ok := t.raw.(io.WriterAt)
	if !ok {
		return nil
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], t.count)
	if _, err := wa.WriteAt(buf[:], t.start+countOffset); err != nil {
		t.err = fmt.Errorf("trace: patching header count: %w", err)
		return t.err
	}
	return nil
}

// Reader streams trace records from an io.Reader.
type Reader struct {
	r      *bufio.Reader
	cores  int
	total  uint64 // 0 = unknown (unpatched header): read to EOF
	served uint64
}

// NewReader validates the header and returns a record reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var hdr [20]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: short header: %w", err)
	}
	if [8]byte(hdr[0:8]) != magic {
		return nil, errors.New("trace: bad magic (not a cuckoodir trace)")
	}
	cores := int(binary.LittleEndian.Uint32(hdr[8:12]))
	if cores <= 0 || cores > 255 {
		return nil, fmt.Errorf("trace: header cores = %d invalid", cores)
	}
	total := binary.LittleEndian.Uint64(hdr[12:20])
	return &Reader{r: br, cores: cores, total: total}, nil
}

// Cores returns the traced system's core count.
func (t *Reader) Cores() int { return t.cores }

// Total returns the header's record count (0 when unknown).
func (t *Reader) Total() uint64 { return t.total }

// Read returns the next record; io.EOF terminates a well-formed trace.
func (t *Reader) Read() (Record, error) {
	if t.total != 0 && t.served >= t.total {
		return Record{}, io.EOF
	}
	var buf [10]byte
	if _, err := io.ReadFull(t.r, buf[:]); err != nil {
		if err == io.EOF && t.total == 0 {
			return Record{}, io.EOF
		}
		if err == io.EOF {
			return Record{}, io.ErrUnexpectedEOF
		}
		return Record{}, err
	}
	core := int(buf[0])
	if core >= t.cores {
		return Record{}, fmt.Errorf("trace: record core %d out of range", core)
	}
	t.served++
	return Record{
		Core: core,
		Access: workload.Access{
			Addr:  binary.LittleEndian.Uint64(buf[2:]),
			Write: buf[1]&flagWrite != 0,
			Code:  buf[1]&flagCode != 0,
		},
	}, nil
}

// Replay feeds every record of a trace into the functional simulator. The
// replayed run is bit-identical to the generator-driven run the trace was
// captured from (same interleaving, same accesses), which
// TestReplayEquivalence verifies. A trace with more cores than the system
// is an error before any record is read.
func Replay(r *Reader, sys *cmpsim.System) (uint64, error) {
	if r.Cores() > sys.Config().Cores {
		return 0, fmt.Errorf("trace: trace has %d cores but the system has only %d", r.Cores(), sys.Config().Cores)
	}
	var n uint64
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		sys.Inject(rec.Core, rec.Access)
		n++
	}
}

// Capture runs the given workload's generators round-robin for n accesses
// and writes the interleaved trace — the checkpoint-capture step of the
// methodology. The header's record count is finalized through Close, so
// captures onto an io.WriterAt (a file) carry an exact Total while
// stream sinks stay readable via the read-to-EOF fallback.
func Capture(w io.Writer, prof workload.Profile, cores int, seed uint64, n int) (uint64, error) {
	if err := prof.Validate(cores); err != nil {
		return 0, fmt.Errorf("trace: %w", err)
	}
	tw, err := NewWriter(w, cores)
	if err != nil {
		return 0, err
	}
	gens := make([]*workload.Generator, cores)
	for c := range gens {
		gens[c] = workload.NewGenerator(prof, c, cores, seed)
	}
	for i := 0; i < n; i++ {
		c := i % cores
		if err := tw.Write(Record{Core: c, Access: gens[c].Next()}); err != nil {
			return tw.Count(), err
		}
	}
	return tw.Count(), tw.Close()
}
