package vecmath

import "encoding/binary"

// Bit-packing helpers for the wire format. Heads and tails are
// bit-addressed regions inside a packet payload, fields MSB-within-byte
// first (network-friendly, so a truncated byte stream still yields a
// readable bit prefix). PackBits/UnpackBits are the bulk kernels the wire
// layer runs; the one-field-at-a-time BitWriter/BitReader in
// bits_ref_test.go define the layout the kernels are tested against.
//
// Widths 1 and 31 — the head and tail of every §3 scheme at its defaults —
// move eight fields at a time: eight fields are exactly 1 and 31 bytes, so
// a group starts byte-aligned, every shift in it is a constant, and the
// ragged tail of fewer than eight fields falls through to the accumulator
// loop that serves every other width.

// PackBits writes the low width bits of every vals[i] into dst as one
// contiguous MSB-first bit stream starting at dst[0] — the exact bytes a
// BitWriter produces for WriteBits(vals[i], width) in order — and returns
// the number of bytes written, ⌈len(vals)·width/8⌉. Every one of those
// bytes is stored whole (the padding bits of the last byte are zero), so
// dst may be dirty recycled memory. It panics if width is outside [1, 32]
// or dst is too short.
//
// This is the bulk form of the per-coordinate writer: a 64-bit accumulator
// takes one shift-or per value and flushes 32 bits at a time, instead of
// one bounds-checked call with partial-byte bookkeeping per value.
func PackBits(dst []byte, vals []uint32, width int) int {
	if width < 1 || width > 32 {
		panic("vecmath: PackBits width out of range")
	}
	n := (len(vals)*width + 7) / 8
	if len(dst) < n {
		panic("vecmath: PackBits destination too short")
	}
	dst = dst[:n]
	switch groups := len(vals) / 8; width {
	case 1:
		pack1x8(dst[:groups], vals[:groups*8])
		dst, vals = dst[groups:], vals[groups*8:]
	case 31:
		pack31x8(dst[:groups*31], vals[:groups*8])
		dst, vals = dst[groups*31:], vals[groups*8:]
	}
	// Shift counts are masked to 0..63 (a no-op for every value they take)
	// so the compiler drops its shift-overflow guards from the loop.
	w := uint(width) & 63
	mask := uint64(1)<<w - 1
	var acc uint64 // pending bits live in the low nacc bits
	nacc, j := uint(0), 0
	for _, v := range vals {
		acc = acc<<w | uint64(v)&mask
		nacc += w
		if nacc >= 32 {
			nacc -= 32
			binary.BigEndian.PutUint32(dst[j:], uint32(acc>>(nacc&63)))
			j += 4
		}
	}
	for nacc >= 8 {
		nacc -= 8
		dst[j] = byte(acc >> (nacc & 63))
		j++
	}
	if nacc > 0 {
		dst[j] = byte(acc << ((8 - nacc) & 63))
	}
	return n
}

// UnpackBits reads len(dst) consecutive width-bit MSB-first fields from
// src into dst — the values a BitReader over src returns for repeated
// ReadBits(width). It panics if width is outside [1, 32] or src holds
// fewer than len(dst)·width bits.
func UnpackBits(dst []uint32, src []byte, width int) {
	if width < 1 || width > 32 {
		panic("vecmath: UnpackBits width out of range")
	}
	n := (len(dst)*width + 7) / 8
	if len(src) < n {
		panic("vecmath: UnpackBits source too short")
	}
	src = src[:n]
	switch groups := len(dst) / 8; width {
	case 1:
		unpack1x8(dst[:groups*8], src[:groups])
		dst, src = dst[groups*8:], src[groups:]
	case 31:
		unpack31x8(dst[:groups*8], src[:groups*31])
		dst, src = dst[groups*8:], src[groups*31:]
	}
	w := uint(width) & 63 // masked shift counts: see PackBits
	mask := uint32(uint64(1)<<w - 1)
	var acc uint64 // unread bits live in the low nacc bits
	nacc, j := uint(0), 0
	for i := range dst {
		if nacc < w {
			if j+4 <= len(src) {
				acc = acc<<32 | uint64(binary.BigEndian.Uint32(src[j:]))
				nacc += 32
				j += 4
			} else {
				for nacc < w {
					acc = acc<<8 | uint64(src[j])
					nacc += 8
					j++
				}
			}
		}
		nacc -= w
		dst[i] = uint32(acc>>(nacc&63)) & mask
	}
}

// pack1x8 packs len(dst) groups of eight 1-bit fields, one byte each.
func pack1x8(dst []byte, vals []uint32) {
	for g := range dst {
		v := vals[g*8 : g*8+8 : g*8+8]
		dst[g] = byte(v[0]&1<<7 | v[1]&1<<6 | v[2]&1<<5 | v[3]&1<<4 |
			v[4]&1<<3 | v[5]&1<<2 | v[6]&1<<1 | v[7]&1)
	}
}

// unpack1x8 is pack1x8's inverse.
func unpack1x8(dst []uint32, src []byte) {
	for g, b := range src {
		v := dst[g*8 : g*8+8 : g*8+8]
		x := uint32(b)
		v[0], v[1], v[2], v[3] = x>>7, x>>6&1, x>>5&1, x>>4&1
		v[4], v[5], v[6], v[7] = x>>3&1, x>>2&1, x>>1&1, x&1
	}
}

// pack31x8 packs len(vals)/8 groups of eight 31-bit fields, 31 bytes each,
// as four big-endian 64-bit stores: stream bits 0–63, 64–127, 128–191 and —
// overlapping the third by one byte, so that nothing past byte 30 is
// written — 184–247. Field i occupies stream bits 31i … 31i+30.
func pack31x8(dst []byte, vals []uint32) {
	const m = 1<<31 - 1
	for len(vals) >= 8 {
		v := vals[:8:8]
		d := dst[:31:31]
		v0, v1, v2, v3 := uint64(v[0]&m), uint64(v[1]&m), uint64(v[2]&m), uint64(v[3]&m)
		v4, v5, v6, v7 := uint64(v[4]&m), uint64(v[5]&m), uint64(v[6]&m), uint64(v[7]&m)
		binary.BigEndian.PutUint64(d[0:], v0<<33|v1<<2|v2>>29)
		binary.BigEndian.PutUint64(d[8:], v2<<35|v3<<4|v4>>27)
		binary.BigEndian.PutUint64(d[16:], v4<<37|v5<<6|v6>>25)
		binary.BigEndian.PutUint64(d[23:], v5<<62|v6<<31|v7)
		dst, vals = dst[31:], vals[8:]
	}
}

// unpack31x8 is pack31x8's inverse, reading the same four words.
func unpack31x8(dst []uint32, src []byte) {
	const m = 1<<31 - 1
	for len(dst) >= 8 {
		v := dst[:8:8]
		s := src[:31:31]
		w0, w1 := binary.BigEndian.Uint64(s[0:]), binary.BigEndian.Uint64(s[8:])
		w2, w3 := binary.BigEndian.Uint64(s[16:]), binary.BigEndian.Uint64(s[23:])
		v[0], v[1] = uint32(w0>>33), uint32(w0>>2)&m
		v[2], v[3] = uint32(w0<<29|w1>>35)&m, uint32(w1>>4)&m
		v[4], v[5] = uint32(w1<<27|w2>>37)&m, uint32(w2>>6)&m
		v[6], v[7] = uint32(w3>>31)&m, uint32(w3)&m
		dst, src = dst[8:], src[31:]
	}
}
