package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace format: a compact, streamable encoding of reference streams
// so traces can be recorded once and replayed against different machine
// configurations (or diffed between versions of a workload generator).
//
// Layout: an 8-byte header ("RMTR" magic, version, reserved), then one
// record per reference: a flags byte (kind/dep/sync), the address as a
// zig-zag varint delta against the previous address, and the work cycles
// as a varint. Sequential patterns therefore cost ~3 bytes per reference.

var traceMagic = [4]byte{'R', 'M', 'T', 'R'}

const traceVersion = 1

const (
	flagStore = 1 << 0
	flagDep   = 1 << 1
	flagSync  = 1 << 2
)

// ErrBadTrace is returned when decoding fails structurally.
var ErrBadTrace = errors.New("trace: malformed trace data")

// Write drains stream s into w in the binary trace format, returning the
// number of references written.
func Write(w io.Writer, s Stream) (int, error) {
	bw := bufio.NewWriter(w)
	header := make([]byte, 8)
	copy(header, traceMagic[:])
	header[4] = traceVersion
	if _, err := bw.Write(header); err != nil {
		return 0, err
	}
	var buf [2 * binary.MaxVarintLen64]byte
	var prevAddr uint64
	count := 0
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		var flags byte
		if r.Kind == Store {
			flags |= flagStore
		}
		if r.Dep {
			flags |= flagDep
		}
		if r.Sync {
			flags |= flagSync
		}
		if err := bw.WriteByte(flags); err != nil {
			return count, err
		}
		delta := int64(r.Addr - prevAddr)
		n := binary.PutVarint(buf[:], delta)
		n += binary.PutUvarint(buf[n:], uint64(r.Work))
		if _, err := bw.Write(buf[:n]); err != nil {
			return count, err
		}
		prevAddr = r.Addr
		count++
	}
	return count, bw.Flush()
}

// reader decodes the binary format as a Stream: its embedded Fill stream
// calls decode for each batch.
type reader struct {
	Stream
	br       *bufio.Reader
	prevAddr uint64
	err      error
}

// NewReader returns a Stream decoding the binary trace format from r. A
// decoding error terminates the stream; check Err afterwards.
func NewReader(r io.Reader) (Stream, error) {
	br := bufio.NewReader(r)
	header := make([]byte, 8)
	if _, err := io.ReadFull(br, header); err != nil {
		return nil, fmt.Errorf("%w: short header", ErrBadTrace)
	}
	if [4]byte{header[0], header[1], header[2], header[3]} != traceMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadTrace)
	}
	if header[4] != traceVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadTrace, header[4])
	}
	rd := &reader{br: br}
	rd.Stream = Fill(rd.decode)
	return rd, nil
}

// decode appends references to buf until it is full, reporting false once
// the input ends or fails to decode.
func (r *reader) decode(buf []Ref) ([]Ref, bool) {
	for len(buf) < cap(buf) {
		flags, err := r.br.ReadByte()
		if err != nil {
			if err != io.EOF {
				r.err = err
			}
			return buf, false
		}
		delta, err := binary.ReadVarint(r.br)
		if err != nil {
			r.err = fmt.Errorf("%w: truncated address", ErrBadTrace)
			return buf, false
		}
		work, err := binary.ReadUvarint(r.br)
		if err != nil {
			r.err = fmt.Errorf("%w: truncated work", ErrBadTrace)
			return buf, false
		}
		r.prevAddr += uint64(delta)
		ref := Ref{
			Addr: r.prevAddr,
			Work: uint32(work),
			Dep:  flags&flagDep != 0,
			Sync: flags&flagSync != 0,
		}
		if flags&flagStore != 0 {
			ref.Kind = Store
		}
		buf = append(buf, ref)
	}
	return buf, true
}

// Err reports a decoding error encountered by a NewReader stream (nil on
// clean EOF).
func (r *reader) Err() error { return r.err }

// ErrorReporter is implemented by streams that can fail mid-iteration.
type ErrorReporter interface {
	Err() error
}
