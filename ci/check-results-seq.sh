#!/usr/bin/env bash
# Regenerates the Seq paper tables (EXPERIMENTS.md: imtao-bench -all
# -seeds 1,2,3) and fails on any difference from the committed
# results_seq.txt outside the timing cells. Run from the repository root:
#
#   bash ci/check-results-seq.sh
#
# The timing cells, masked on both sides before the diff, are the "(c) CPU
# time" tables, the "CPU seconds" plots and every "cpu (s)" column. The
# assigner ablation's budgeted Opt rows are checked like every other row:
# their budget counts search steps, so they reproduce exactly.
set -euo pipefail

mask() {
	awk '
	BEGIN { cpu = -1 }
	# A table or plot ends at the first blank line.
	/^[[:space:]]*$/ { skip = 0; cpu = -1; print; next }
	skip { next }
	/^  \(c\) CPU time/ || /: CPU seconds$/ { skip = 1; print "[timing block]"; next }
	/cpu \(s\)/ {
		# The cpu column, counted from the right: row labels may hold
		# spaces, the columns after the label never do.
		h = $0
		sub(/cpu \(s\)/, "cpu_s", h)
		n = split(h, f, /[[:space:]]+/)
		for (i = n; i >= 1; i--) if (f[i] == "cpu_s") { cpu = n - i; break }
		print
		next
	}
	cpu >= 0 { $(NF - cpu) = "*"; print; next }
	{ print }
	'
}

fresh=$(mktemp)
trap 'rm -f "$fresh"' EXIT
go run ./cmd/imtao-bench -all -seeds 1,2,3 > "$fresh"
if ! diff -u <(mask < results_seq.txt) <(mask < "$fresh"); then
	echo "results_seq.txt differs from a fresh 'imtao-bench -all -seeds 1,2,3' outside the timing cells" >&2
	exit 1
fi
echo "results_seq.txt matches a fresh run outside the timing cells"
