//go:build race

package par

// spinBudget under the race detector, where every poll is instrumented:
// spin.go's budget holds an idle member on a CPU for milliseconds after
// each phase. On the 2-vCPU reference box it took check.sh's race pass,
// whose test binaries share the CPUs, from 4.7 to 12.2 s in ml and from
// 34.7 to 52.9 s in collective. The spin path stays, shorter.
const spinBudget = 1 << 8
