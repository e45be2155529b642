//! Element dtypes for tensor storage, plus the scalar conversion kernels
//! (IEEE 754 binary16 and symmetric per-tensor int8) the quantized storage
//! and the GEMM convert-on-pack paths are built on.
//!
//! The f16 conversions are hand-rolled bit manipulation (no external
//! crates): `f32 -> f16` rounds to nearest-even exactly like hardware
//! `VCVTPS2PH`, and `f16 -> f32` is exact, so a decode → encode round trip
//! preserves every non-NaN bit pattern (pinned by an exhaustive test over
//! all 65536 half-precision values).

/// Element type of a tensor's storage.
///
/// `F32` is the compute dtype everywhere — `F16` and `I8` are *storage*
/// dtypes for inference weights: the GEMM packing routines widen them back
/// to `f32` lanes while packing, so accumulation always happens in `f32`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum DType {
    /// 32-bit IEEE float — the native compute type.
    #[default]
    F32,
    /// 16-bit IEEE float (binary16) weight storage, widened on pack.
    F16,
    /// Symmetric per-tensor quantized 8-bit integers plus one `f32` scale.
    I8,
}

impl DType {
    /// Bytes per element (the `I8` scale is amortised over the tensor).
    pub fn size_bytes(self) -> usize {
        match self {
            DType::F32 => 4,
            DType::F16 => 2,
            DType::I8 => 1,
        }
    }

    /// Lower-case canonical name (`"f32"` / `"f16"` / `"i8"`).
    pub fn as_str(self) -> &'static str {
        match self {
            DType::F32 => "f32",
            DType::F16 => "f16",
            DType::I8 => "i8",
        }
    }

    /// Parses a dtype name as written by [`DType::as_str`]
    /// (case-insensitive). `None` for anything else.
    pub fn parse(s: &str) -> Option<DType> {
        match s.trim().to_ascii_lowercase().as_str() {
            "f32" => Some(DType::F32),
            "f16" => Some(DType::F16),
            "i8" => Some(DType::I8),
            _ => None,
        }
    }
}

impl std::fmt::Display for DType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Converts one IEEE binary16 bit pattern to the exactly-representable
/// `f32` value (every finite f16 is exact in f32; NaN payloads are widened
/// into the f32 mantissa).
#[inline]
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let em = (h & 0x7fff) as u32;
    if em >= 0x7c00 {
        // infinity / NaN: max out the f32 exponent, shift the payload up
        return f32::from_bits(sign | 0x7f80_0000 | ((em & 0x03ff) << 13));
    }
    if em < 0x0400 {
        // zero / subnormal: the mantissa counts units of 2^-24
        let mag = em as f32 * f32::from_bits(0x3380_0000); // 2^-24
        return if sign != 0 { -mag } else { mag };
    }
    // normal: rebias the exponent (15 -> 127 means adding 112 << 10)
    f32::from_bits(sign | ((em + 0x1c000) << 13))
}

/// Converts an `f32` to the nearest IEEE binary16 bit pattern
/// (round-to-nearest-even, overflow to infinity, NaN to a quiet NaN).
#[inline]
pub fn f32_to_f16_bits(v: f32) -> u16 {
    let bits = v.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let abs = bits & 0x7fff_ffff;
    if abs > 0x7f80_0000 {
        // NaN: quiet, canonical payload
        return sign | 0x7e00;
    }
    if abs >= 0x4780_0000 {
        // 65520 rounds up past f16::MAX; everything here becomes infinity
        return sign | 0x7c00;
    }
    let e = (abs >> 23) as i32; // biased f32 exponent
    if e < 102 {
        // below 2^-25: underflows to (signed) zero even after rounding
        return sign;
    }
    let m = (abs & 0x007f_ffff) | 0x0080_0000; // implicit leading 1
    if e < 113 {
        // subnormal f16: shift the full significand into place, RNE
        let shift = (113 - e) + 13;
        let q = m >> shift;
        let rem = m & ((1 << shift) - 1);
        let half = 1 << (shift - 1);
        let round = (rem > half || (rem == half && (q & 1) == 1)) as u32;
        return sign | (q + round) as u16;
    }
    // normal: 10 explicit mantissa bits, RNE on the dropped 13
    let he = (e - 112) as u32;
    let q = (he << 10) | ((m & 0x007f_ffff) >> 13);
    let rem = m & 0x1fff;
    let round = (rem > 0x1000 || (rem == 0x1000 && (q & 1) == 1)) as u32;
    // a mantissa carry naturally increments the exponent; at the very top
    // (65504 + carry) it lands exactly on the infinity encoding
    sign | (q + round) as u16
}

/// Symmetric per-tensor int8 scale: `max |x| / 127`, or `1.0` for an
/// all-zero (or empty) tensor so dequantisation stays well-defined.
pub fn i8_scale(data: &[f32]) -> f32 {
    let amax = data.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    if amax > 0.0 && amax.is_finite() {
        amax / 127.0
    } else {
        1.0
    }
}

/// Quantises one value with the given symmetric scale (round half away
/// from zero, clamped to `[-127, 127]` so the range stays symmetric).
#[inline]
pub fn f32_to_i8(v: f32, scale: f32) -> i8 {
    (v / scale).round().clamp(-127.0, 127.0) as i8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_names_round_trip() {
        for dt in [DType::F32, DType::F16, DType::I8] {
            assert_eq!(DType::parse(dt.as_str()), Some(dt));
            assert_eq!(dt.to_string(), dt.as_str());
        }
        assert_eq!(DType::parse("F16"), Some(DType::F16));
        assert_eq!(DType::parse("bf16"), None);
        assert_eq!(DType::F32.size_bytes(), 4);
        assert_eq!(DType::F16.size_bytes(), 2);
        assert_eq!(DType::I8.size_bytes(), 1);
    }

    #[test]
    fn f16_decode_matches_known_values() {
        assert_eq!(f16_bits_to_f32(0x0000), 0.0);
        assert_eq!(f16_bits_to_f32(0x8000), -0.0);
        assert_eq!(f16_bits_to_f32(0x3c00), 1.0);
        assert_eq!(f16_bits_to_f32(0xc000), -2.0);
        assert_eq!(f16_bits_to_f32(0x7bff), 65504.0); // f16::MAX
        assert_eq!(f16_bits_to_f32(0x0001), 5.960_464_5e-8); // smallest subnormal
        assert_eq!(f16_bits_to_f32(0x0400), 6.103_515_6e-5); // smallest normal
        assert_eq!(f16_bits_to_f32(0x7c00), f32::INFINITY);
        assert_eq!(f16_bits_to_f32(0xfc00), f32::NEG_INFINITY);
        assert!(f16_bits_to_f32(0x7e00).is_nan());
    }

    #[test]
    fn f16_encode_matches_known_values() {
        assert_eq!(f32_to_f16_bits(0.0), 0x0000);
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
        assert_eq!(f32_to_f16_bits(1.0), 0x3c00);
        assert_eq!(f32_to_f16_bits(65504.0), 0x7bff);
        assert_eq!(f32_to_f16_bits(65520.0), 0x7c00); // ties to infinity
        assert_eq!(f32_to_f16_bits(1e9), 0x7c00);
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7c00);
        assert_eq!(f32_to_f16_bits(f32::NEG_INFINITY), 0xfc00);
        assert_eq!(f32_to_f16_bits(f32::NAN) & 0x7fff, 0x7e00);
        // RNE at the mantissa midpoint: 1 + 2^-11 is exactly halfway
        // between 1.0 and the next f16 (1 + 2^-10); even mantissa wins
        assert_eq!(f32_to_f16_bits(1.0 + 0.000_488_281_25), 0x3c00);
        // 2^-25 is halfway between 0 and the smallest subnormal -> 0 (even)
        assert_eq!(f32_to_f16_bits(f32::from_bits(0x3300_0000)), 0x0000);
        // just above the midpoint rounds up to the smallest subnormal
        assert_eq!(f32_to_f16_bits(f32::from_bits(0x3300_0001)), 0x0001);
    }

    #[test]
    fn f16_decode_encode_round_trips_every_pattern() {
        // every f16 is exactly representable in f32, so decode -> encode
        // must reproduce the input bits for all non-NaN patterns
        for h in 0..=u16::MAX {
            let v = f16_bits_to_f32(h);
            if v.is_nan() {
                assert_eq!(f32_to_f16_bits(v) & 0x7c00, 0x7c00, "{h:#06x}");
                continue;
            }
            assert_eq!(f32_to_f16_bits(v), h, "{h:#06x} decoded to {v}");
        }
    }

    #[test]
    fn f16_encode_is_nearest() {
        // sweep a range of f32 values and verify the encoded f16 is at
        // least as close as both neighbours
        for i in 0..10_000u32 {
            let v = f32::from_bits(0x3800_0000 + i * 7919); // [~3e-5, ...)
            let h = f32_to_f16_bits(v);
            let dec = f16_bits_to_f32(h);
            let err = (dec - v).abs();
            for nb in [h.wrapping_sub(1), h.wrapping_add(1)] {
                let nv = f16_bits_to_f32(nb);
                if nv.is_finite() {
                    assert!(
                        (nv - v).abs() >= err,
                        "{v}: {h:#06x} (err {err}) vs {nb:#06x} (err {})",
                        (nv - v).abs()
                    );
                }
            }
        }
    }

    #[test]
    fn i8_quantisation_is_symmetric_and_bounded() {
        let data = [-3.0f32, -1.5, 0.0, 0.75, 3.0];
        let scale = i8_scale(&data);
        assert!((scale - 3.0 / 127.0).abs() < 1e-9);
        for &v in &data {
            let q = f32_to_i8(v, scale);
            assert!((-127..=127).contains(&(q as i32)));
            let back = q as f32 * scale;
            assert!(
                (back - v).abs() <= scale * 0.5 + 1e-6,
                "{v} -> {q} -> {back}"
            );
        }
        // extremes map to the full range
        assert_eq!(f32_to_i8(3.0, scale), 127);
        assert_eq!(f32_to_i8(-3.0, scale), -127);
        // degenerate all-zero tensor gets the identity scale
        assert_eq!(i8_scale(&[0.0, 0.0]), 1.0);
        assert_eq!(i8_scale(&[]), 1.0);
    }
}
