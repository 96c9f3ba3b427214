package experiments

import "repro/internal/stats"

// CompareSignificance runs the Wilcoxon rank-sum test between two
// algorithms' best-objective distributions across replications (infeasible
// runs enter as +Inf, i.e. worst rank) and returns the two-sided p-value.
func CompareSignificance(a, b *AlgoStats) float64 {
	_, p := stats.RankSum(a.Objectives(), b.Objectives())
	return p
}
