package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"trimgrad/internal/quant"
)

// In-network aggregate packets (the SwitchML-style extension of the
// paper's trimming switch). When two trimmable data packets with the same
// (message, row, start, count, seed) key meet in one queue, the switch
// replaces them with a single aggregate whose payload carries *decoded
// native-domain sums* instead of head/tail bit regions:
//
//	+-----------+------------------------+--------------------------+
//	|  header   | S: head-only sums      | T: full-precision sums   |
//	| (40 bytes)| (count × float32 BE)   | (tailCount × float32 BE) |
//	+-----------+------------------------+--------------------------+
//
// S[i] is the sum of every input's head-only decode of coordinate i —
// the value a receiver would use had the input been trimmed. T[i] is the
// sum of full (head+tail) decodes, present only for the survivor prefix:
// the intersection of the inputs' survivor prefixes, tailCount =
// min over inputs. The receiver uses T[i] when i < tailCount and S[i]
// otherwise, so the aggregate is decode-equivalent to receiving and
// summing the inputs individually.
//
// The layout makes trimming commute with aggregation by construction:
// both regions are float32-aligned (header P=Q=32), so wire.Trim cuts an
// aggregate to whole-T boundaries exactly as it cuts whole tails, and
// trimming T to k entries produces the identical bytes as aggregating
// inputs whose prefixes already intersected to k. Aggregates may exceed
// MaxPayload (a P=1 input expands ~8× into float32 sums): the fabric
// carries them as jumbo frames, which is part of the placement trade-off
// the aggregation sweep measures.
//
// The Flow field is repurposed to count how many original sender packets
// the aggregate folds together; the receiver credits that many packets to
// reassembly accounting.

// Errors specific to aggregate packets.
var (
	ErrNotAgg   = errors.New("wire: not an aggregate packet")
	ErrMergeKey = errors.New("wire: aggregate merge key mismatch")
	ErrNoMeta   = errors.New("wire: no metadata snooped for flow")
)

// AggPacket is a parsed in-network aggregate.
type AggPacket struct {
	Header
	// Sums holds the head-only decode sums for all Count coordinates.
	Sums []float32
	// TailSums holds full-precision decode sums; only the first TailCount
	// entries are meaningful.
	TailSums []float32
	// TailCount is the aggregate's survivor prefix: the intersection
	// (minimum) of the input packets' survivor prefixes, possibly further
	// shortened by a post-aggregation trim.
	TailCount int
}

// BuildAggPacket serializes an aggregate packet. h supplies the shared
// key fields (Message, Row, Start, Count, Seed) and Flow = input count;
// flags and geometry are normalized here: P = Q = 32 and FlagAgg set. The
// tail CRC is the checksum of the tails given, so building from
// already-trimmed inputs yields the bytes of trimming a full aggregate to
// the same survivor prefix in every field but that one, which no reader
// checks on a cut tail region.
func BuildAggPacket(h Header, sums, tailSums []float32) ([]byte, error) {
	if int(h.Count) != len(sums) {
		return nil, fmt.Errorf("wire: count %d != sums %d", h.Count, len(sums))
	}
	if len(tailSums) > len(sums) {
		return nil, fmt.Errorf("wire: tailSums %d > sums %d", len(tailSums), len(sums))
	}
	if h.Flow == 0 {
		return nil, fmt.Errorf("wire: aggregate input count (Flow) must be positive")
	}
	h.Flags = h.Flags&^FlagMeta | FlagAgg
	h.P, h.Q = 32, 32

	buf := make([]byte, HeaderSize+4*len(sums)+4*len(tailSums))
	h.marshal(buf)
	off := HeaderSize
	for _, v := range sums {
		binary.BigEndian.PutUint32(buf[off:], math.Float32bits(v))
		off += 4
	}
	headEnd := off
	for _, v := range tailSums {
		binary.BigEndian.PutUint32(buf[off:], math.Float32bits(v))
		off += 4
	}
	binary.BigEndian.PutUint32(buf[offHeadCRC:], headerChecksum(buf, buf[HeaderSize:headEnd]))
	binary.BigEndian.PutUint32(buf[offTailCRC:], checksum(buf[headEnd:]))
	return buf, nil
}

// ParseAggPacket decodes a (possibly trimmed) aggregate packet. The S
// region must be complete and pass the head CRC; T entries are recovered
// for as many leading coordinates as the surviving bytes allow, with the
// tail CRC verified only when the full region is present.
func ParseAggPacket(buf []byte) (*AggPacket, error) {
	h, tailCount, err := CheckAggPacket(buf)
	if err != nil {
		return nil, err
	}
	p := &AggPacket{
		Header:    h,
		Sums:      make([]float32, h.Count),
		TailSums:  make([]float32, h.Count),
		TailCount: tailCount,
	}
	unpackFloats(p.Sums, buf[HeaderSize:])
	unpackFloats(p.TailSums[:tailCount], buf[HeaderSize+h.HeadBytes():])
	return p, nil
}

// CheckAggPacket is CheckDataPacket for an aggregate: every accept/reject
// decision, nothing unpacked or allocated, the header and the survivor
// prefix length returned.
func CheckAggPacket(buf []byte) (h Header, tailCount int, err error) {
	if h, err = ParseHeader(buf); err == nil {
		tailCount, err = checkAgg(buf, &h)
	}
	return h, tailCount, err
}

// UnpackAgg reads from an aggregate CheckAggPacket has accepted the value a
// receiver uses for each of its len(vals) coordinates: T[i] inside the
// tailCount-long survivor prefix, S[i] beyond it. Like UnpackData it never
// reads the header.
func UnpackAgg(vals []float32, buf []byte, tailCount int) {
	unpackFloats(vals[:tailCount], buf[HeaderSize+4*len(vals):])
	unpackFloats(vals[tailCount:], buf[HeaderSize+4*tailCount:])
}

// unpackFloats reads len(dst) big-endian float32s from src.
func unpackFloats(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.BigEndian.Uint32(src[4*i:]))
	}
}

// checkAgg makes every accept/reject decision about buf as an aggregate
// packet whose header is h, without allocating, and returns the survivor
// prefix length.
func checkAgg(buf []byte, h *Header) (tailCount int, err error) {
	if !h.IsAgg() || h.IsMeta() {
		return 0, ErrNotAgg
	}
	if h.P != 32 || h.Q != 32 {
		return 0, fmt.Errorf("wire: implausible aggregate P=%d Q=%d", h.P, h.Q)
	}
	if h.Flow == 0 {
		return 0, fmt.Errorf("wire: aggregate input count 0")
	}
	hr := headRegion(buf, h)
	if hr == nil {
		return 0, fmt.Errorf("%w: aggregate S region incomplete", ErrTooShort)
	}
	if headerChecksum(buf, hr) != binary.BigEndian.Uint32(buf[offHeadCRC:]) {
		return 0, fmt.Errorf("%w (aggregate S region)", ErrBadChecksum)
	}
	tailBuf := tailRegion(buf, h)
	if !tailCRCHolds(buf, h, tailBuf) {
		return 0, fmt.Errorf("%w (aggregate T region)", ErrBadChecksum)
	}
	return wholeTails(h, tailBuf), nil
}

// MetaInfo is the per-(flow, message, row) side information a merging
// switch snoops from the reliable metadata packets passing through it:
// the quantization scheme and the row's Scale. Without it a plain data
// packet cannot be decoded into the native domain, and the switch must
// forward it unmerged.
type MetaInfo struct {
	Scheme quant.Scheme
	Scale  float64
}

// aggSide is one merge input decomposed into native-domain sums.
type aggSide struct {
	sums   []float32 // head-only decodes, all Count coords
	tails  []float32 // full decodes, survivor prefix only
	inputs uint32
}

// decompose turns a queued payload (plain data packet or aggregate) into
// native-domain S/T vectors. dp is the caller's unpack scratch for the
// plain-packet case.
func decompose(buf []byte, h *Header, metaOf func(flow, msg, row uint32) (MetaInfo, bool), dp *DataPacket) (aggSide, error) {
	if h.IsAgg() {
		ap, err := ParseAggPacket(buf)
		if err != nil {
			return aggSide{}, err
		}
		return aggSide{
			sums:   ap.Sums,
			tails:  ap.TailSums[:ap.TailCount],
			inputs: ap.Flow,
		}, nil
	}
	if err := dp.Unpack(buf); err != nil {
		return aggSide{}, err
	}
	meta, ok := metaOf(h.Flow, h.Message, h.Row)
	if !ok {
		return aggSide{}, fmt.Errorf("%w %d (message %d row %d)", ErrNoMeta, h.Flow, h.Message, h.Row)
	}
	nd, err := quant.NewNativeDecoder(meta.Scheme, int(h.P), int(h.Q), meta.Scale, h.Seed)
	if err != nil {
		return aggSide{}, err
	}
	// S: every coordinate decoded as if trimmed; T: full decodes for the
	// survivor prefix. Two passes keep the SD dither stream aligned in
	// both.
	sums, full := make([]float32, h.Count), make([]float32, h.Count)
	if err := nd.PacketValues(sums, int(h.Start), dp.Heads, dp.Tails, 0); err != nil {
		return aggSide{}, err
	}
	if err := nd.PacketValues(full, int(h.Start), dp.Heads, dp.Tails, dp.TailCount); err != nil {
		return aggSide{}, err
	}
	return aggSide{sums: sums, tails: full[:dp.TailCount], inputs: 1}, nil
}

// MergeTrimmable merges two queued trimmable payloads (each a plain data
// packet or an existing aggregate) into one aggregate packet. The inputs
// must agree on the aggregation key (Message, Row, Start, Count, Seed);
// a is treated as the earlier-queued packet and its values accumulate
// first, keeping float addition order deterministic. metaOf supplies the
// snooped per-flow scale needed to decode plain packets; if it cannot,
// the merge fails and the caller forwards the packets unmerged. Neither
// input buffer is modified.
//
// The merged survivor prefix is the intersection (minimum) of the
// inputs' prefixes, so merging already-trimmed packets produces the
// identical bytes as trimming the merge of their untrimmed selves.
func MergeTrimmable(a, b []byte, metaOf func(flow, msg, row uint32) (MetaInfo, bool)) ([]byte, error) {
	ha, err := ParseHeader(a)
	if err != nil {
		return nil, err
	}
	hb, err := ParseHeader(b)
	if err != nil {
		return nil, err
	}
	if ha.IsMeta() || hb.IsMeta() {
		return nil, fmt.Errorf("%w: only data/aggregate packets merge", ErrMergeKey)
	}
	if ha.Message != hb.Message || ha.Row != hb.Row || ha.Start != hb.Start ||
		ha.Count != hb.Count || ha.Seed != hb.Seed {
		return nil, ErrMergeKey
	}
	var dp DataPacket // unpack scratch: a and b share Count, so b reuses a's slices
	sa, err := decompose(a, &ha, metaOf, &dp)
	if err != nil {
		return nil, err
	}
	sb, err := decompose(b, &hb, metaOf, &dp)
	if err != nil {
		return nil, err
	}
	sums := make([]float32, len(sa.sums))
	for i := range sums {
		sums[i] = sa.sums[i] + sb.sums[i]
	}
	tc := min(len(sa.tails), len(sb.tails))
	tails := make([]float32, tc)
	for i := 0; i < tc; i++ {
		tails[i] = sa.tails[i] + sb.tails[i]
	}
	mh := Header{
		Flow:    sa.inputs + sb.inputs,
		Message: ha.Message,
		Row:     ha.Row,
		Start:   ha.Start,
		Count:   ha.Count,
		Seed:    ha.Seed,
	}
	return BuildAggPacket(mh, sums, tails)
}
