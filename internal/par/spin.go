//go:build !race

package par

// spinBudget is how many times a waiting crew member polls before it
// parks. 1<<16 polls last about 200 µs on the 2-vCPU reference box: a
// permute_k8_s2 window lasts about 350 µs; with a 5 µs budget (1<<12)
// 29 % of the workers' waits there and 33 % of the caller's still parked,
// with this one 18 % and 6 %.
const spinBudget = 1 << 16
