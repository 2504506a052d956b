// Wire codecs: the spill frame (format "acctee-spill/v2") and the dump
// container (format "acctee-ledger/v3"). This file is the only place that
// knows either byte layout — the store, crash recovery and the offline
// verifiers read frames through a frameReader (walkFrames or
// walkFrameViews for a whole file, frameReader.at or atView for an
// indexed frame) and containers through readDumpHeader and
// readDumpRecords, and write them through appendBinFrame /
// writeDumpContainer.
//
// Ownership. Decoding reuses storage: a frameReader owns one body buffer,
// one frameView and one []Record and refills them for every frame, and
// readDumpRecords hands out each record's bytes where they lie in its read
// buffer. What a callback is handed — the *spillFrame of walkFrames, the
// *frameView of walkFrameViews, the record bytes of readDumpRecords, the
// *Record of readDumpContainer and of a Snapshot replay — is therefore the
// decoder's, valid until the callback returns. A caller that keeps a
// record copies the struct; the copy is then whole, as a decoded Signature
// is a fresh allocation, never a view of the read buffer. A caller that
// keeps record bytes copies them: the verifiers' hash-ahead stage copies
// each record's bytes into a batch of its own, and WriteDump gathers them
// from a frame view into a buffer of container bytes. viewRecordBin is the
// one decoder whose Signature is a view; the stage's in-order checks use
// it on bytes the batch holds. So recovery, both verifiers and the dump
// allocate in proportion to the largest frame and the batches in flight,
// not to the record count. readFrameAt, readBinFrame and
// decodeBinFramePayload decode through a reader of their own and so return
// a frame the caller owns (Get, and the white-box tests).
//
// Both layouts reuse the pinned serialisations the hash chain is already
// built on (Record.Marshal, UsageLog.AppendMarshal — guarded by
// TestMarshalPinned), so the codec adds no second source of truth about
// record bytes.
//
// Spill frame (one frame per seal):
//
//	u32  payloadLen          little-endian, length of payload only
//	payload:
//	    u32  shard
//	    u64  base            first sequence in the frame
//	    u32  count           records in the frame (> 0)
//	    count × record:
//	        132 B  Record.Marshal()   (shard u32 | prevHash 32 | log 96)
//	         32 B  hash               the record's chain head
//	        u16    sigLen | sig       eager signature (0 for batched mode)
//	     32 B  head             chain head after the frame
//	     96 B  totals           running shard aggregate after the frame
//	u32  crc                 CRC-32C (Castagnoli) over payload
//
// Torn-tail rule (applied once, by walkFrames, for crash recovery and the
// offline verifier alike): a frame is *torn* if and only if the file ends
// before the advertised frame end (length prefix itself cut short, or
// fewer than payloadLen+4 bytes follow it) — the residue of a crash
// mid-append, cut and forgotten. A frame that is fully present but fails
// its CRC or its structural decode is *corruption* and always a hard
// error, even in tail position: a flipped byte can never demote itself to
// an honest crash.
//
// Dump container:
//
//	8 B  magic "ACCTDMP3"
//	u32  headerLen
//	headerLen B of JSON: the Dump struct with an empty records array —
//	     format, shards, measurement, publicKey, anchor, checkpoints,
//	     prunedCheckpoints
//	repeated: u32 recLen | recLen B of binary record (layout above)
//	u32  0                   terminator, followed by end of input
package accounting

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// SpillFormatV2 is the one spill layout, stamped into every manifest. A
// directory carrying any other stamp (the line-delimited JSON
// "acctee-spill/v1" of PR 5 included) is refused.
const SpillFormatV2 = "acctee-spill/v2"

// DumpFormatV3 is the one serialised dump layout, stamped into every
// container header and every in-memory Dump.
const DumpFormatV3 = "acctee-ledger/v3"

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// binRecordSize returns the encoded size of one record.
func binRecordSize(r *Record) int {
	return recordMarshalSize + 32 + 2 + len(r.Signature)
}

// appendRecordBin appends one record in the binary layout.
func appendRecordBin(buf []byte, r *Record) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], r.Shard)
	buf = append(buf, b[:]...)
	buf = append(buf, r.PrevHash[:]...)
	buf = r.Log.AppendMarshal(buf)
	buf = append(buf, r.Hash[:]...)
	if len(r.Signature) > 0xffff {
		// Unreachable for ECDSA signatures; guarded so the u16 length can
		// never silently truncate.
		panic("accounting: record signature exceeds 65535 bytes")
	}
	binary.LittleEndian.PutUint16(b[:2], uint16(len(r.Signature)))
	buf = append(buf, b[:2]...)
	return append(buf, r.Signature...)
}

// binRecordLen returns the length of the record encoding b starts with,
// checking that b holds all of it.
func binRecordLen(b []byte) (int, error) {
	if len(b) < recordMarshalSize+32+2 {
		return 0, fmt.Errorf("accounting: binary record truncated (%d bytes)", len(b))
	}
	n := recordMarshalSize + 32 + 2 + int(binary.LittleEndian.Uint16(b[recordMarshalSize+32:]))
	if len(b) < n {
		return 0, fmt.Errorf("accounting: binary record signature truncated")
	}
	return n, nil
}

// viewRecordBin decodes the record encoding b, whose length binRecordLen
// has checked, into r. Every field of r is overwritten; the signature is a
// view of b, valid while b is.
func viewRecordBin(b []byte, r *Record) {
	r.Shard = binary.LittleEndian.Uint32(b)
	copy(r.PrevHash[:], b[4:36])
	_ = r.Log.unmarshal(b[36:recordMarshalSize]) // exactly MarshalSize bytes: cannot fail
	copy(r.Hash[:], b[recordMarshalSize:recordMarshalSize+32])
	r.Signature = nil
	if sig := b[recordMarshalSize+32+2:]; len(sig) > 0 {
		r.Signature = sig[:len(sig):len(sig)]
	}
}

// decodeRecordBin decodes the record encoding b, whose length binRecordLen
// has checked, into r. Every field of r is overwritten — r may be reused
// storage — and a signature is always a fresh allocation, never a view of
// b, so a caller may keep a copy of *r after b is refilled.
func decodeRecordBin(b []byte, r *Record) {
	viewRecordBin(b, r)
	if r.Signature != nil {
		r.Signature = append([]byte(nil), r.Signature...)
	}
}

// maxBinFramePayload bounds a frame's declared payload length so a
// hostile length prefix cannot size a multi-gigabyte allocation.
const maxBinFramePayload = 1 << 30

// encodeBinFrame serialises a spill frame (length prefix + payload + CRC).
func encodeBinFrame(fr *spillFrame) []byte {
	return appendBinFrame(nil, fr, fr.Records)
}

// appendBinFrame appends the encoding of the frame whose header fields are
// fr's and whose records are the concatenation of runs (fr.Records is not
// consulted: a seal encodes straight from the resident segments' slices).
func appendBinFrame(buf []byte, fr *spillFrame, runs ...[]Record) []byte {
	size, count := 4+8+4+32+MarshalSize, 0
	for _, run := range runs {
		count += len(run)
		for i := range run {
			size += binRecordSize(&run[i])
		}
	}
	start := len(buf)
	buf = slices.Grow(buf, 4+size+4)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(size))
	buf = binary.LittleEndian.AppendUint32(buf, fr.Shard)
	buf = binary.LittleEndian.AppendUint64(buf, fr.Base)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(count))
	for _, run := range runs {
		for i := range run {
			buf = appendRecordBin(buf, &run[i])
		}
	}
	buf = append(buf, fr.Head[:]...)
	buf = fr.Totals.AppendMarshal(buf)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start+4:], castagnoli))
}

// frameView is a spill frame checked and split in place: its header and
// stamps decoded, its records left as their wire encodings, back to back
// in recs.
type frameView struct {
	Shard  uint32
	Base   uint64
	Head   [32]byte
	Totals UsageLog
	recs   []byte
	ends   []int // end offset in recs of each record
}

// record returns the i-th record's wire encoding.
func (v *frameView) record(i int) []byte {
	start := 0
	if i > 0 {
		start = v.ends[i-1]
	}
	return v.recs[start:v.ends[i]]
}

// decode fills fr from the view, each record's signature a fresh
// allocation; fr.Records is reused storage.
func (v *frameView) decode(fr *spillFrame) *spillFrame {
	fr.Shard, fr.Base, fr.Head, fr.Totals = v.Shard, v.Base, v.Head, v.Totals
	fr.Records = slices.Grow(fr.Records[:0], len(v.ends))[:len(v.ends)]
	for i := range fr.Records {
		decodeRecordBin(v.record(i), &fr.Records[i]) // split checked every length
	}
	return fr
}

// frameReader reads spill frames into storage it owns and refills: one
// body buffer, one view and one []Record, grown to the largest frame seen.
// The frame or view a method returns is valid until the reader's next call.
type frameReader struct {
	body []byte // read buffer: the bytes of the current frame
	view frameView
	fr   spillFrame
}

// split checks a frame payload's structure (its CRC already checked) and
// views it in place.
func (d *frameReader) split(payload []byte) (*frameView, error) {
	if len(payload) < 4+8+4+32+MarshalSize {
		return nil, fmt.Errorf("accounting: binary frame payload too short (%d bytes)", len(payload))
	}
	v := &d.view
	v.Shard = binary.LittleEndian.Uint32(payload)
	v.Base = binary.LittleEndian.Uint64(payload[4:])
	count := binary.LittleEndian.Uint32(payload[12:])
	if count == 0 {
		return nil, fmt.Errorf("accounting: binary frame declares zero records")
	}
	rest := payload[16:]
	if uint64(count) > uint64(len(rest))/uint64(recordMarshalSize+32+2) {
		return nil, fmt.Errorf("accounting: binary frame declares %d records in %d bytes", count, len(rest))
	}
	v.ends = slices.Grow(v.ends[:0], int(count))
	off := 0
	for range count {
		n, err := binRecordLen(rest[off:])
		if err != nil {
			return nil, err
		}
		off += n
		v.ends = append(v.ends, off)
	}
	v.recs, rest = rest[:off], rest[off:]
	if len(rest) != 32+MarshalSize {
		return nil, fmt.Errorf("accounting: binary frame has %d trailing bytes, want %d", len(rest), 32+MarshalSize)
	}
	copy(v.Head[:], rest[:32])
	_ = v.Totals.unmarshal(rest[32:]) // exactly MarshalSize bytes: cannot fail
	return v, nil
}

// decodePayload decodes a frame payload (CRC already checked).
func (d *frameReader) decodePayload(payload []byte) (*spillFrame, error) {
	v, err := d.split(payload)
	if err != nil {
		return nil, err
	}
	return v.decode(&d.fr), nil
}

// checkBody checks a complete frame's CRC and structure; body is
// everything after the length prefix (payload, then the CRC).
func (d *frameReader) checkBody(body []byte) (*frameView, error) {
	payload := body[:len(body)-4]
	wantCRC := binary.LittleEndian.Uint32(body[len(payload):])
	if got := crc32.Checksum(payload, castagnoli); got != wantCRC {
		return nil, fmt.Errorf("accounting: binary frame CRC mismatch (stored %08x, computed %08x)", wantCRC, got)
	}
	return d.split(payload)
}

// errTornFrame marks a frame cut short by the end of the file — the honest
// residue of a crash mid-append, distinct from corruption.
var errTornFrame = fmt.Errorf("accounting: torn binary frame at end of file")

// nextView reads the next frame off r and views it. It returns io.EOF
// cleanly between frames, errTornFrame when the file ends inside a frame,
// and a hard error for a complete frame whose CRC or structure is wrong.
// The body buffer grows only as input arrives (readExactly), so a length
// prefix the file does not back sizes no allocation.
func (d *frameReader) nextView(r *bufio.Reader) (*frameView, int64, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		return nil, 0, errTornFrame // length prefix itself cut short
	}
	payloadLen := binary.LittleEndian.Uint32(lenBuf[:])
	if payloadLen == 0 || payloadLen > maxBinFramePayload {
		return nil, 0, fmt.Errorf("accounting: binary frame declares %d-byte payload", payloadLen)
	}
	body, err := readExactly(r, int(payloadLen)+4, d.body)
	if err != nil {
		return nil, 0, errTornFrame // file ends before the advertised frame end
	}
	d.body = body
	v, err := d.checkBody(body)
	if err != nil {
		return nil, 0, err
	}
	return v, int64(4 + payloadLen + 4), nil
}

// next reads and decodes the next frame off r, as nextView reads it.
func (d *frameReader) next(r *bufio.Reader) (*spillFrame, int64, error) {
	v, size, err := d.nextView(r)
	if err != nil {
		return nil, 0, err
	}
	return v.decode(&d.fr), size, nil
}

// atView reads and views the frame an index entry locates.
func (d *frameReader) atView(f *os.File, fi frameIndex) (*frameView, error) {
	if fi.size < 8 {
		return nil, fmt.Errorf("accounting: spill frame index names a %d-byte frame", fi.size)
	}
	buf := slices.Grow(d.body[:0], int(fi.size))[:fi.size]
	d.body = buf
	if _, err := f.ReadAt(buf, fi.off); err != nil {
		return nil, fmt.Errorf("accounting: read spill frame: %w", err)
	}
	if payloadLen := binary.LittleEndian.Uint32(buf); int64(payloadLen)+8 != fi.size {
		return nil, fmt.Errorf("accounting: spill frame length drifted (payload %d in a %d-byte frame)", payloadLen, fi.size)
	}
	return d.checkBody(buf[4:])
}

// at decodes the frame an index entry locates.
func (d *frameReader) at(f *os.File, fi frameIndex) (*spillFrame, error) {
	v, err := d.atView(f, fi)
	if err != nil {
		return nil, err
	}
	return v.decode(&d.fr), nil
}

// The fresh-allocating forms: each decodes through a reader of its own, so
// the frame it returns is the caller's to keep. Get uses readFrameAt; the
// other two serve the white-box tests and the fuzz target.
func decodeBinFramePayload(payload []byte) (*spillFrame, error) {
	return new(frameReader).decodePayload(payload)
}

func readBinFrame(r *bufio.Reader) (*spillFrame, int64, error) {
	return new(frameReader).next(r)
}

func readFrameAt(f *os.File, fi frameIndex) (*spillFrame, error) {
	return new(frameReader).at(f, fi)
}

// walkFrameViews streams one shard's segment file through fn, frame by
// frame, each frame viewed in place with its byte offset and on-disk size;
// the view is reused storage, valid for the call only. It is where the
// torn-tail rule lives: the walk ends cleanly at the end of the file or at
// a torn trailing frame, returning the offset just past the last whole
// frame (where recovery cuts); a complete frame that fails its CRC or
// structure, or an error from fn, ends it with that error. A missing file
// is an empty one.
func walkFrameViews(path string, fn func(v *frameView, off, size int64) error) (goodEnd int64, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	// A frame body longer than the buffer is read straight into the frame
	// reader's own, so the buffer only has to cover prefixes and small frames.
	br := bufio.NewReaderSize(f, 1<<16)
	var d frameReader
	var off int64
	for {
		v, size, err := d.nextView(br)
		if err == io.EOF || err == errTornFrame {
			return off, nil
		}
		if err != nil {
			return off, fmt.Errorf("accounting: %s at offset %d: %w", filepath.Base(path), off, err)
		}
		if err := fn(v, off, size); err != nil {
			return off, err
		}
		off += size
	}
}

// walkFrames is walkFrameViews with every frame decoded: the frame is
// reused storage, valid for the call only.
func walkFrames(path string, fn func(fr *spillFrame, off, size int64) error) (goodEnd int64, err error) {
	var fr spillFrame
	return walkFrameViews(path, func(v *frameView, off, size int64) error {
		return fn(v.decode(&fr), off, size)
	})
}

// dumpMagicV3 opens every dump container.
var dumpMagicV3 = [8]byte{'A', 'C', 'C', 'T', 'D', 'M', 'P', '3'}

// maxBinDumpHeader bounds the declared header length of a dump container.
const maxBinDumpHeader = 1 << 28

// maxBinDumpRecord bounds one encoded dump record (a record is ~166 bytes
// plus an optional ECDSA signature; anything near the bound is hostile).
const maxBinDumpRecord = 1 << 20

// writeDumpContainer streams a container: magic, length-prefixed header
// JSON (head, whose Records must be empty and non-nil), then the record
// stream body writes, closed by a zero length.
func writeDumpContainer(w io.Writer, head *Dump, body func(*containerWriter) error) error {
	hj, err := json.Marshal(head)
	if err != nil {
		return err
	}
	cw := &containerWriter{bw: bufio.NewWriter(w)}
	if _, err := cw.bw.Write(dumpMagicV3[:]); err != nil {
		return err
	}
	if err := cw.lengthPrefixed(hj); err != nil {
		return err
	}
	if err := body(cw); err != nil {
		return err
	}
	if err := cw.lengthPrefixed(nil); err != nil {
		return err
	}
	return cw.bw.Flush()
}

// containerWriter writes a container's record stream: each record as its
// u32 length and its wire encoding, encoded from a Record or copied from a
// spill frame as it lies on disk (frameReader.gatherFrame).
type containerWriter struct {
	bw  *bufio.Writer
	enc []byte // one record's encoding
}

func (cw *containerWriter) lengthPrefixed(b []byte) error {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(b)))
	if _, err := cw.bw.Write(n[:]); err != nil {
		return err
	}
	_, err := cw.bw.Write(b)
	return err
}

// record encodes r into the stream.
func (cw *containerWriter) record(r *Record) error {
	cw.enc = appendRecordBin(cw.enc[:0], r)
	return cw.lengthPrefixed(cw.enc)
}

// gatherFrame appends to buf the container bytes of the records of the
// spill frame fi locates whose sequence lies in [from, to): each record's
// length prefix and its bytes, unchanged. The frame is checked as decoding
// checks it — CRC and structure — and nothing is decoded. done reports
// that the frame reached to, past which no later frame holds a record of
// the range.
func (d *frameReader) gatherFrame(buf []byte, f *os.File, fi frameIndex, from, to uint64) (out []byte, done bool, err error) {
	v, err := d.atView(f, fi)
	if err != nil {
		return buf, false, err
	}
	// Sized up front: grown by append, a frame-sized buffer would be
	// allocated about five times over on its way up.
	buf = slices.Grow(buf, len(v.recs)+4*len(v.ends))
	for i := range v.ends {
		seq := fi.base + uint64(i)
		if seq < from {
			continue
		}
		if seq >= to {
			return buf, true, nil
		}
		rec := v.record(i)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec)))
		buf = append(buf, rec...)
	}
	return buf, false, nil
}

// write writes container bytes gathered elsewhere.
func (cw *containerWriter) write(b []byte) error {
	_, err := cw.bw.Write(b)
	return err
}

// copyAhead pipes chunks from fill to write through two buffers: fill
// runs on a goroutine of the call's own and gathers the next chunk into
// one buffer while write, on the calling goroutine, consumes the last one
// from the other. fill hands each chunk to emit, which returns the buffer
// to gather the next one into (empty, its storage reused). Every chunk
// fill emits before an error is written, in order; copyAhead returns
// write's first error, else fill's, once fill's goroutine has exited.
func copyAhead(fill func(emit func(chunk []byte) ([]byte, error)) error, write func([]byte) error) error {
	full := make(chan []byte, 1)
	// Two buffers circulate: fill's own and this one. free holds both, so
	// handing one back never blocks, whether or not fill still takes them.
	free := make(chan []byte, 2)
	stop := make(chan struct{})
	free <- nil
	var fillErr error
	go func() {
		defer close(full)
		fillErr = fill(func(chunk []byte) ([]byte, error) {
			full <- chunk
			next := <-free // the loop below hands back every chunk it takes
			select {
			case <-stop:
				return nil, errStopped
			default:
				return next[:0], nil
			}
		})
	}()
	var err error
	for chunk := range full {
		if err == nil {
			if err = write(chunk); err != nil {
				close(stop)
			}
		}
		free <- chunk
	}
	if err != nil {
		return err
	}
	return fillErr
}

// readExactly reads n bytes off r, into buf's storage when it is large
// enough. A longer read grows the buffer in bounded steps, so a hostile
// length prefix can only size an allocation the input actually backs.
func readExactly(r io.Reader, n int, buf []byte) ([]byte, error) {
	if n <= cap(buf) {
		buf = buf[:n]
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	const step = 64 << 10
	buf = buf[:0]
	for len(buf) < n {
		grow := min(n-len(buf), step)
		buf = append(buf, make([]byte, grow)...)
		if _, err := io.ReadFull(r, buf[len(buf)-grow:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// readDumpHeader reads a container's magic and header off br: the
// decoded header, format checked, records empty.
func readDumpHeader(br *bufio.Reader) (*Dump, error) {
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("accounting: parse ledger dump: %w", err)
	}
	if magic != dumpMagicV3 {
		return nil, fmt.Errorf("accounting: ledger dump magic %q, want %q", magic[:], dumpMagicV3[:])
	}
	var b [4]byte
	if _, err := io.ReadFull(br, b[:]); err != nil {
		return nil, fmt.Errorf("accounting: parse ledger dump header: %w", err)
	}
	hlen := binary.LittleEndian.Uint32(b[:])
	if hlen == 0 || hlen > maxBinDumpHeader {
		return nil, fmt.Errorf("accounting: ledger dump declares a %d-byte header", hlen)
	}
	hj, err := readExactly(br, int(hlen), nil)
	if err != nil {
		return nil, fmt.Errorf("accounting: parse ledger dump header: %w", err)
	}
	// The header is decoded strictly — a field the Dump struct does not
	// know is refused, as is anything after the object — so no byte of it
	// goes unread: a misspelt "checkpoints" cannot quietly pass for a
	// ledger that was never checkpointed.
	var d Dump
	dec := json.NewDecoder(bytes.NewReader(hj))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("accounting: parse ledger dump header: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("accounting: ledger dump header carries data after its JSON object")
	}
	if d.Format != DumpFormatV3 {
		return nil, fmt.Errorf("accounting: dump format %q, want %q", d.Format, DumpFormatV3)
	}
	if len(d.Records) != 0 {
		return nil, fmt.Errorf("accounting: ledger dump header carries %d records outside the record stream", len(d.Records))
	}
	return &d, nil
}

// readDumpRecords reads the record stream that follows a container's
// header off br, handing fn each record's wire encoding in stream order
// (its length checked; valid for the call only). Anything but the end of
// the input after the terminator is an error — bytes the walk never looked
// at must not ride along inside something reported as verified.
func readDumpRecords(br *bufio.Reader, fn func(rec []byte) error) error {
	var rbuf []byte
	for {
		// A record that fits br's buffer is handed over where it lies
		// there; a longer one is read into rbuf. Either way a short read
		// reports what io.ReadFull would: EOF if nothing followed, else
		// ErrUnexpectedEOF.
		b, err := br.Peek(4)
		if len(b) < 4 {
			return fmt.Errorf("accounting: ledger dump truncated: %w", shortRead(len(b), err))
		}
		rlen := int(binary.LittleEndian.Uint32(b))
		if rlen == 0 {
			_, _ = br.Discard(4)
			break // terminator
		}
		if rlen > maxBinDumpRecord {
			return fmt.Errorf("accounting: ledger dump record declares %d bytes", rlen)
		}
		var rec []byte
		peeked := 4+rlen <= br.Size()
		if peeked {
			b, err = br.Peek(4 + rlen)
			if len(b) < 4+rlen {
				return fmt.Errorf("accounting: ledger dump truncated: %w", shortRead(len(b)-4, err))
			}
			rec = b[4:]
		} else {
			_, _ = br.Discard(4)
			if rbuf, err = readExactly(br, rlen, rbuf); err != nil {
				return fmt.Errorf("accounting: ledger dump truncated: %w", err)
			}
			rec = rbuf
		}
		n, err := binRecordLen(rec)
		if err != nil {
			return err
		}
		if n != rlen {
			return fmt.Errorf("accounting: ledger dump record carries %d trailing bytes", rlen-n)
		}
		if err := fn(rec); err != nil {
			return err
		}
		if peeked {
			_, _ = br.Discard(4 + rlen)
		}
	}
	if _, err := br.ReadByte(); err != io.EOF {
		if err == nil {
			err = fmt.Errorf("data after the terminator")
		}
		return fmt.Errorf("accounting: ledger dump does not end at its terminator: %w", err)
	}
	return nil
}

// shortRead is the error io.ReadFull returns after reading got bytes of
// more: io.EOF for none, io.ErrUnexpectedEOF for some, or the reader's own
// error if it was not the end of the input.
func shortRead(got int, err error) error {
	switch {
	case err != nil && err != io.EOF:
		return err
	case got == 0:
		return io.EOF
	}
	return io.ErrUnexpectedEOF
}

// readDumpContainer parses a container off r: header receives the decoded
// header before the first record is read, record each record decoded, in
// stream order (valid for the call only).
func readDumpContainer(r io.Reader, header func(*Dump) error, record func(*Record) error) error {
	br := bufio.NewReaderSize(r, 1<<16)
	d, err := readDumpHeader(br)
	if err != nil {
		return err
	}
	if err := header(d); err != nil {
		return err
	}
	// One Record for the whole stream: passed to a func value it would
	// otherwise be heap-allocated per record. record must not retain it.
	var rec Record
	return readDumpRecords(br, func(b []byte) error {
		decodeRecordBin(b, &rec) // readDumpRecords checked its length
		return record(&rec)
	})
}
