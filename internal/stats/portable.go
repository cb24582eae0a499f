// Copyright 2009 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

package stats

import "math"

// exp and erfc below are the Go standard library's pure-Go math.exp and
// math.erfc, ported so that every architecture computes the same bits.
// math.Exp runs assembly on amd64 (fused multiply-adds on CPUs that have
// them) and arm64, and pure Go on 386, so φ and Φ — and every value
// Algorithm 2 derives from them — differed in their last bits from one
// machine to the next. Two things differ from the library's source, and
// neither moves a bit where the library's pure Go runs: every product
// that a compiler could fuse with a sum is written float64(x*y) + z,
// which arm64, ppc64le and s390x must round on its own, and exp scales
// by a power of two with one multiplication where the result is normal,
// calling math.Ldexp only for the overflow and subnormal edges.
//
// The original C code, the long comments and the constants are from
// FreeBSD's /usr/src/lib/msun/src/e_exp.c and s_erf.c and came with these
// notices:
//
// ====================================================
// Copyright (C) 2004 by Sun Microsystems, Inc. All rights reserved.
//
// Permission to use, copy, modify, and distribute this
// software is freely granted, provided that this notice
// is preserved.
// ====================================================
//
// ====================================================
// Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
// Developed at SunPro, a Sun Microsystems, Inc. business.
// Permission to use, copy, modify, and distribute this
// software is freely granted, provided that this notice
// is preserved.
// ====================================================

// exp returns e**x, with math.Exp's special cases.
//
// Method (e_exp.c):
//  1. Argument reduction: find r and an integer k such that
//     x = k·ln2 + r, |r| ≤ 0.5·ln2, with r represented as hi − lo.
//  2. Approximate exp(r) through R(r²) = r·(exp(r)+1)/(exp(r)−1), a
//     degree-5 Remez polynomial on [0, 0.34658] with error below 2⁻⁵⁹:
//     exp(r) = 1 + r + r·R1(r)/(2 − R1(r)), R1(r) = r − (P1·r² + … + P5·r¹⁰).
//  3. Scale back: exp(x) = 2ᵏ·exp(r).
//
// The error is always below one ulp.
func exp(x float64) float64 {
	const (
		Ln2Hi = 6.93147180369123816490e-01
		Ln2Lo = 1.90821492927058770002e-10
		Log2e = 1.44269504088896338700e+00

		Overflow  = 7.09782712893383973096e+02
		Underflow = -7.45133219101941108420e+02
		NearZero  = 1.0 / (1 << 28) // 2**-28
	)

	// special cases
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case math.IsInf(x, -1):
		return 0
	case x > Overflow:
		return math.Inf(1)
	case x < Underflow:
		return 0
	case -NearZero < x && x < NearZero:
		return 1 + x
	}

	// reduce; computed as r = hi - lo for extra precision.
	var k int
	switch {
	case x < 0:
		k = int(float64(Log2e*x) - 0.5)
	case x > 0:
		k = int(float64(Log2e*x) + 0.5)
	}
	hi := x - float64(float64(k)*Ln2Hi)
	lo := float64(k) * Ln2Lo

	// compute
	return expmulti(hi, lo, k)
}

// expmulti returns e**r × 2**k where r = hi - lo and |r| ≤ ln(2)/2.
func expmulti(hi, lo float64, k int) float64 {
	const (
		P1 = 1.66666666666666657415e-01  /* 0x3FC55555; 0x55555555 */
		P2 = -2.77777777770155933842e-03 /* 0xBF66C16C; 0x16BEBD93 */
		P3 = 6.61375632143793436117e-05  /* 0x3F11566A; 0xAF25DE2C */
		P4 = -1.65339022054652515390e-06 /* 0xBEBBBD41; 0xC5D26BF1 */
		P5 = 4.13813679705723846039e-08  /* 0x3E663769; 0x72BEA4D0 */
	)

	r := hi - lo
	t := r * r
	c := r - float64(t*(P1+float64(t*(P2+float64(t*(P3+float64(t*(P4+float64(t*P5)))))))))
	y := 1 - ((lo - (r*c)/(2-c)) - hi)
	// y lies in about [0.7, 1.42], so for k in [−1021, 1023] the product
	// is normal and exact: the very bits math.Ldexp(y, k) returns.
	if -1021 <= k && k <= 1023 {
		return float64(y * math.Float64frombits(uint64(k+1023)<<52))
	}
	return math.Ldexp(y, k)
}

// Coefficients of erfc's rational approximations (s_erf.c).
const (
	erx = 8.45062911510467529297e-01 // 0x3FEB0AC160000000
	// Coefficients for approximation to  erf in [0, 0.84375]
	pp0 = 1.28379167095512558561e-01  // 0x3FC06EBA8214DB68
	pp1 = -3.25042107247001499370e-01 // 0xBFD4CD7D691CB913
	pp2 = -2.84817495755985104766e-02 // 0xBF9D2A51DBD7194F
	pp3 = -5.77027029648944159157e-03 // 0xBF77A291236668E4
	pp4 = -2.37630166566501626084e-05 // 0xBEF8EAD6120016AC
	qq1 = 3.97917223959155352819e-01  // 0x3FD97779CDDADC09
	qq2 = 6.50222499887672944485e-02  // 0x3FB0A54C5536CEBA
	qq3 = 5.08130628187576562776e-03  // 0x3F74D022C4D36B0F
	qq4 = 1.32494738004321644526e-04  // 0x3F215DC9221C1A10
	qq5 = -3.96022827877536812320e-06 // 0xBED09C4342A26120
	// Coefficients for approximation to  erf  in [0.84375, 1.25]
	pa0 = -2.36211856075265944077e-03 // 0xBF6359B8BEF77538
	pa1 = 4.14856118683748331666e-01  // 0x3FDA8D00AD92B34D
	pa2 = -3.72207876035701323847e-01 // 0xBFD7D240FBB8C3F1
	pa3 = 3.18346619901161753674e-01  // 0x3FD45FCA805120E4
	pa4 = -1.10894694282396677476e-01 // 0xBFBC63983D3E28EC
	pa5 = 3.54783043256182359371e-02  // 0x3FA22A36599795EB
	pa6 = -2.16637559486879084300e-03 // 0xBF61BF380A96073F
	qa1 = 1.06420880400844228286e-01  // 0x3FBB3E6618EEE323
	qa2 = 5.40397917702171048937e-01  // 0x3FE14AF092EB6F33
	qa3 = 7.18286544141962662868e-02  // 0x3FB2635CD99FE9A7
	qa4 = 1.26171219808761642112e-01  // 0x3FC02660E763351F
	qa5 = 1.36370839120290507362e-02  // 0x3F8BEDC26B51DD1C
	qa6 = 1.19844998467991074170e-02  // 0x3F888B545735151D
	// Coefficients for approximation to  erfc in [1.25, 1/0.35]
	ra0 = -9.86494403484714822705e-03 // 0xBF843412600D6435
	ra1 = -6.93858572707181764372e-01 // 0xBFE63416E4BA7360
	ra2 = -1.05586262253232909814e+01 // 0xC0251E0441B0E726
	ra3 = -6.23753324503260060396e+01 // 0xC04F300AE4CBA38D
	ra4 = -1.62396669462573470355e+02 // 0xC0644CB184282266
	ra5 = -1.84605092906711035994e+02 // 0xC067135CEBCCABB2
	ra6 = -8.12874355063065934246e+01 // 0xC054526557E4D2F2
	ra7 = -9.81432934416914548592e+00 // 0xC023A0EFC69AC25C
	sa1 = 1.96512716674392571292e+01  // 0x4033A6B9BD707687
	sa2 = 1.37657754143519042600e+02  // 0x4061350C526AE721
	sa3 = 4.34565877475229228821e+02  // 0x407B290DD58A1A71
	sa4 = 6.45387271733267880336e+02  // 0x40842B1921EC2868
	sa5 = 4.29008140027567833386e+02  // 0x407AD02157700314
	sa6 = 1.08635005541779435134e+02  // 0x405B28A3EE48AE2C
	sa7 = 6.57024977031928170135e+00  // 0x401A47EF8E484A93
	sa8 = -6.04244152148580987438e-02 // 0xBFAEEFF2EE749A62
	// Coefficients for approximation to  erfc in [1/.35, 28]
	rb0 = -9.86494292470009928597e-03 // 0xBF84341239E86F4A
	rb1 = -7.99283237680523006574e-01 // 0xBFE993BA70C285DE
	rb2 = -1.77579549177547519889e+01 // 0xC031C209555F995A
	rb3 = -1.60636384855821916062e+02 // 0xC064145D43C5ED98
	rb4 = -6.37566443368389627722e+02 // 0xC083EC881375F228
	rb5 = -1.02509513161107724954e+03 // 0xC09004616A2E5992
	rb6 = -4.83519191608651397019e+02 // 0xC07E384E9BDC383F
	sb1 = 3.03380607434824582924e+01  // 0x403E568B261D5190
	sb2 = 3.25792512996573918826e+02  // 0x40745CAE221B9F0A
	sb3 = 1.53672958608443695994e+03  // 0x409802EB189D5118
	sb4 = 3.19985821950859553908e+03  // 0x40A8FFB7688C246A
	sb5 = 2.55305040643316442583e+03  // 0x40A3F219CEDF3BE6
	sb6 = 4.74528541206955367215e+02  // 0x407DA874E79FE763
	sb7 = -2.24409524465858183362e+01 // 0xC03670E242712D62
)

// erfc returns the complementary error function 1 − erf(x), with
// math.Erfc's special cases.
//
// Method (s_erf.c):
//  1. |x| < 0.84375: erfc(x) = 1 − erf(x), erf(x) = x + x·R(x²) with R an
//     odd rational function, taken as 0.5 + ((0.5 − x) − x·R) where
//     x ≥ 0.25.
//  2. 0.84375 ≤ |x| < 1.25: erfc(x) = (1 − c) − P1(s)/Q1(s), s = |x| − 1,
//     c = 0.84506291151 rounded to single precision.
//  3. 1.25 ≤ |x| < 28: erfc(x) = exp(−x² − 0.5625 + R/S)/x, R/S a rational
//     function of 1/x² (one for |x| < 1/0.35, another beyond), with −x²
//     split as −s² + (s − x)(s + x), s being x with its low 32 bits clear.
//  4. Beyond, erfc underflows to 0 (or is 2 for x ≤ −6).
//
// erfc(−x) = 2 − erfc(x).
func erfc(x float64) float64 {
	const Tiny = 1.0 / (1 << 56) // 2**-56
	// special cases
	switch {
	case math.IsNaN(x):
		return math.NaN()
	case math.IsInf(x, 1):
		return 0
	case math.IsInf(x, -1):
		return 2
	}
	sign := false
	if x < 0 {
		x = -x
		sign = true
	}
	if x < 0.84375 { // |x| < 0.84375
		var temp float64
		if x < Tiny { // |x| < 2**-56
			temp = x
		} else {
			z := x * x
			r := pp0 + float64(z*(pp1+float64(z*(pp2+float64(z*(pp3+float64(z*pp4)))))))
			s := 1 + float64(z*(qq1+float64(z*(qq2+float64(z*(qq3+float64(z*(qq4+float64(z*qq5)))))))))
			y := r / s
			if x < 0.25 { // |x| < 1/4
				temp = x + float64(x*y)
			} else {
				temp = 0.5 + (float64(x*y) + (x - 0.5))
			}
		}
		if sign {
			return 1 + temp
		}
		return 1 - temp
	}
	if x < 1.25 { // 0.84375 <= |x| < 1.25
		s := x - 1
		P := pa0 + float64(s*(pa1+float64(s*(pa2+float64(s*(pa3+float64(s*(pa4+float64(s*(pa5+float64(s*pa6)))))))))))
		Q := 1 + float64(s*(qa1+float64(s*(qa2+float64(s*(qa3+float64(s*(qa4+float64(s*(qa5+float64(s*qa6)))))))))))
		if sign {
			return 1 + erx + P/Q
		}
		return 1 - erx - P/Q
	}
	if x < 28 { // |x| < 28
		s := 1 / (x * x)
		var R, S float64
		if x < 1/0.35 { // |x| < 1 / 0.35 ~ 2.857143
			R = ra0 + float64(s*(ra1+float64(s*(ra2+float64(s*(ra3+float64(s*(ra4+float64(s*(ra5+float64(s*(ra6+float64(s*ra7)))))))))))))
			S = 1 + float64(s*(sa1+float64(s*(sa2+float64(s*(sa3+float64(s*(sa4+float64(s*(sa5+float64(s*(sa6+float64(s*(sa7+float64(s*sa8)))))))))))))))
		} else { // |x| >= 1 / 0.35 ~ 2.857143
			if sign && x > 6 {
				return 2 // x < -6
			}
			R = rb0 + float64(s*(rb1+float64(s*(rb2+float64(s*(rb3+float64(s*(rb4+float64(s*(rb5+float64(s*rb6)))))))))))
			S = 1 + float64(s*(sb1+float64(s*(sb2+float64(s*(sb3+float64(s*(sb4+float64(s*(sb5+float64(s*(sb6+float64(s*sb7)))))))))))))
		}
		z := math.Float64frombits(math.Float64bits(x) & 0xffffffff00000000) // pseudo-single (20-bit) precision x
		r := exp(-float64(z*z)-0.5625) * exp(float64((z-x)*(z+x))+R/S)
		if sign {
			return 2 - r/x
		}
		return r / x
	}
	if sign {
		return 2
	}
	return 0
}
