// Wire codecs: the spill frame (format "acctee-spill/v2") and the dump
// container (format "acctee-ledger/v3"). This file is the only place that
// knows either byte layout — the store, crash recovery and the offline
// verifier read frames through a frameReader (walkFrames for a whole
// file, frameReader.at for an indexed frame) and containers through
// readDumpContainer, and write them through appendBinFrame /
// writeDumpContainer.
//
// Ownership. Decoding reuses storage: a frameReader owns one body buffer
// and one []Record and refills both for every frame, and readDumpContainer
// decodes every record into one Record. What a callback is handed — the
// *spillFrame of walkFrames, the *Record of readDumpContainer and of a
// Snapshot replay — is therefore the decoder's, valid until the callback
// returns; a caller that keeps a record copies the struct. The copy is
// then whole: a decoded Signature is a fresh allocation, never a view of
// the read buffer. So recovery, both verifiers and the dump allocate in
// proportion to the largest frame, not to the record count. readFrameAt,
// readBinFrame and decodeBinFramePayload decode through a reader of their
// own and so return a frame the caller owns (Get, and the white-box tests).
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

// decodeRecordBin decodes one record into r, returning the bytes consumed.
// Every field of r is overwritten — r may be reused storage — and a
// signature is always a fresh allocation, never a view of b, so a caller
// may keep a copy of *r after b is refilled.
func decodeRecordBin(b []byte, r *Record) (int, error) {
	if len(b) < recordMarshalSize+32+2 {
		return 0, fmt.Errorf("accounting: binary record truncated (%d bytes)", len(b))
	}
	r.Shard = binary.LittleEndian.Uint32(b)
	copy(r.PrevHash[:], b[4:36])
	if err := r.Log.unmarshal(b[36 : 36+MarshalSize]); err != nil {
		return 0, err
	}
	off := recordMarshalSize
	copy(r.Hash[:], b[off:off+32])
	off += 32
	sigLen := int(binary.LittleEndian.Uint16(b[off:]))
	off += 2
	if len(b) < off+sigLen {
		return 0, fmt.Errorf("accounting: binary record signature truncated")
	}
	r.Signature = nil
	if sigLen > 0 {
		r.Signature = append([]byte(nil), b[off:off+sigLen]...)
	}
	return off + sigLen, nil
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

// frameReader decodes spill frames into storage it owns and refills: one
// body buffer and one []Record, both grown to the largest frame seen. The
// frame a method returns is valid until the reader's next call.
type frameReader struct {
	body []byte // read buffer: the bytes of the frame fr was decoded from
	fr   spillFrame
}

// decodePayload decodes a frame payload (CRC already checked).
func (d *frameReader) decodePayload(payload []byte) (*spillFrame, error) {
	if len(payload) < 4+8+4+32+MarshalSize {
		return nil, fmt.Errorf("accounting: binary frame payload too short (%d bytes)", len(payload))
	}
	fr := &d.fr
	fr.Shard = binary.LittleEndian.Uint32(payload)
	fr.Base = binary.LittleEndian.Uint64(payload[4:])
	count := binary.LittleEndian.Uint32(payload[12:])
	if count == 0 {
		return nil, fmt.Errorf("accounting: binary frame declares zero records")
	}
	rest := payload[16:]
	if uint64(count) > uint64(len(rest))/uint64(recordMarshalSize+32+2) {
		return nil, fmt.Errorf("accounting: binary frame declares %d records in %d bytes", count, len(rest))
	}
	fr.Records = slices.Grow(fr.Records[:0], int(count))[:count]
	for i := range fr.Records {
		n, err := decodeRecordBin(rest, &fr.Records[i])
		if err != nil {
			return nil, err
		}
		rest = rest[n:]
	}
	if len(rest) != 32+MarshalSize {
		return nil, fmt.Errorf("accounting: binary frame has %d trailing bytes, want %d", len(rest), 32+MarshalSize)
	}
	copy(fr.Head[:], rest[:32])
	if err := fr.Totals.unmarshal(rest[32:]); err != nil {
		return nil, err
	}
	return fr, nil
}

// decodeBody checks a complete frame's CRC and decodes it; body is
// everything after the length prefix (payload, then the CRC).
func (d *frameReader) decodeBody(body []byte) (*spillFrame, error) {
	payload := body[:len(body)-4]
	wantCRC := binary.LittleEndian.Uint32(body[len(payload):])
	if got := crc32.Checksum(payload, castagnoli); got != wantCRC {
		return nil, fmt.Errorf("accounting: binary frame CRC mismatch (stored %08x, computed %08x)", wantCRC, got)
	}
	return d.decodePayload(payload)
}

// errTornFrame marks a frame cut short by the end of the file — the honest
// residue of a crash mid-append, distinct from corruption.
var errTornFrame = fmt.Errorf("accounting: torn binary frame at end of file")

// next reads the next frame off r. It returns io.EOF cleanly between
// frames, errTornFrame when the file ends inside a frame, and a hard error
// for a complete frame whose CRC or structure is wrong. The body buffer
// grows only as input arrives (readExactly), so a length prefix the file
// does not back sizes no allocation.
func (d *frameReader) next(r *bufio.Reader) (*spillFrame, int64, error) {
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
	fr, err := d.decodeBody(body)
	if err != nil {
		return nil, 0, err
	}
	return fr, int64(4 + payloadLen + 4), nil
}

// at decodes the frame an index entry locates.
func (d *frameReader) at(f *os.File, fi frameIndex) (*spillFrame, error) {
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
	return d.decodeBody(buf[4:])
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

// walkFrames streams one shard's segment file through fn, frame by frame,
// with each frame's byte offset and on-disk size; the frame is reused
// storage, valid for the call only. It is where the torn-tail rule lives:
// the walk ends cleanly at the end of the file or at a torn trailing
// frame, returning the offset just past the last whole frame (where
// recovery cuts); a complete frame that fails its CRC or decode, or an
// error from fn, ends it with that error. A missing file is an empty one.
func walkFrames(path string, fn func(fr *spillFrame, off, size int64) error) (goodEnd int64, err error) {
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
		fr, size, err := d.next(br)
		if err == io.EOF || err == errTornFrame {
			return off, nil
		}
		if err != nil {
			return off, fmt.Errorf("accounting: %s at offset %d: %w", filepath.Base(path), off, err)
		}
		if err := fn(fr, off, size); err != nil {
			return off, err
		}
		off += size
	}
}

// dumpMagicV3 opens every dump container.
var dumpMagicV3 = [8]byte{'A', 'C', 'C', 'T', 'D', 'M', 'P', '3'}

// maxBinDumpHeader bounds the declared header length of a dump container.
const maxBinDumpHeader = 1 << 28

// maxBinDumpRecord bounds one encoded dump record (a record is ~166 bytes
// plus an optional ECDSA signature; anything near the bound is hostile).
const maxBinDumpRecord = 1 << 20

// writeDumpContainer streams a container: magic, length-prefixed header
// JSON (head, whose Records must be empty and non-nil), then every record
// the snapshots replay as u32 length + binary encoding, closed by a zero
// length.
func writeDumpContainer(w io.Writer, head *Dump, snaps []func(func(*Record) error) error) error {
	hj, err := json.Marshal(head)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(dumpMagicV3[:]); err != nil {
		return err
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(len(hj)))
	if _, err := bw.Write(b[:]); err != nil {
		return err
	}
	if _, err := bw.Write(hj); err != nil {
		return err
	}
	var rbuf []byte
	for i := range snaps {
		err := snaps[i](func(r *Record) error {
			rbuf = appendRecordBin(rbuf[:0], r)
			binary.LittleEndian.PutUint32(b[:], uint32(len(rbuf)))
			if _, err := bw.Write(b[:]); err != nil {
				return err
			}
			_, err := bw.Write(rbuf)
			return err
		})
		if err != nil {
			return err
		}
	}
	binary.LittleEndian.PutUint32(b[:], 0)
	if _, err := bw.Write(b[:]); err != nil {
		return err
	}
	return bw.Flush()
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

// readDumpContainer parses a container off r: header receives the decoded
// header (format checked, records empty) before the first record is
// read, record each record in stream order (valid for the call only).
// Anything but the end of the input after the terminator is an error —
// bytes the walk never looked at must not ride along inside something
// reported as verified.
func readDumpContainer(r io.Reader, header func(*Dump) error, record func(*Record) error) error {
	br := bufio.NewReaderSize(r, 1<<16)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return fmt.Errorf("accounting: parse ledger dump: %w", err)
	}
	if magic != dumpMagicV3 {
		return fmt.Errorf("accounting: ledger dump magic %q, want %q", magic[:], dumpMagicV3[:])
	}
	var b [4]byte
	if _, err := io.ReadFull(br, b[:]); err != nil {
		return fmt.Errorf("accounting: parse ledger dump header: %w", err)
	}
	hlen := binary.LittleEndian.Uint32(b[:])
	if hlen == 0 || hlen > maxBinDumpHeader {
		return fmt.Errorf("accounting: ledger dump declares a %d-byte header", hlen)
	}
	hj, err := readExactly(br, int(hlen), nil)
	if err != nil {
		return fmt.Errorf("accounting: parse ledger dump header: %w", err)
	}
	// The header is decoded strictly — a field the Dump struct does not
	// know is refused, as is anything after the object — so no byte of it
	// goes unread: a misspelt "checkpoints" cannot quietly pass for a
	// ledger that was never checkpointed.
	var d Dump
	dec := json.NewDecoder(bytes.NewReader(hj))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return fmt.Errorf("accounting: parse ledger dump header: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("accounting: ledger dump header carries data after its JSON object")
	}
	if d.Format != DumpFormatV3 {
		return fmt.Errorf("accounting: dump format %q, want %q", d.Format, DumpFormatV3)
	}
	if len(d.Records) != 0 {
		return fmt.Errorf("accounting: ledger dump header carries %d records outside the record stream", len(d.Records))
	}
	if err := header(&d); err != nil {
		return err
	}
	var rbuf []byte
	// One Record for the whole stream: passed to a func value it would
	// otherwise be heap-allocated per record. record must not retain it.
	var rec Record
	for {
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return fmt.Errorf("accounting: ledger dump truncated: %w", err)
		}
		rlen := int(binary.LittleEndian.Uint32(b[:]))
		if rlen == 0 {
			break // terminator
		}
		if rlen > maxBinDumpRecord {
			return fmt.Errorf("accounting: ledger dump record declares %d bytes", rlen)
		}
		if rbuf, err = readExactly(br, rlen, rbuf); err != nil {
			return fmt.Errorf("accounting: ledger dump truncated: %w", err)
		}
		n, err := decodeRecordBin(rbuf, &rec)
		if err != nil {
			return err
		}
		if n != rlen {
			return fmt.Errorf("accounting: ledger dump record carries %d trailing bytes", rlen-n)
		}
		if err := record(&rec); err != nil {
			return err
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
