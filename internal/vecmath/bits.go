package vecmath

import "encoding/binary"

// Bit-packing helpers for the wire format. Heads and tails are
// bit-addressed regions inside a packet payload, fields MSB-within-byte
// first (network-friendly, so a truncated byte stream still yields a
// readable bit prefix). PackBits/UnpackBits are the bulk kernels the wire
// layer runs; the one-field-at-a-time BitWriter/BitReader in
// bits_ref_test.go define the layout the kernels are tested against.

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
