"""Print sum_f n(f) and sum_f n(f)^2 over all of F_p^5 for each prime given,
with n = p^5 * Phi_hat_p(f) from the package's closed form, as one JSON
object {"p": [sum, sum of squares], ...}.

Run from the repository root with src on PYTHONPATH:
    PYTHONPATH=src python3 perfbench/transform_sums.py 5 7
"""

import json
import sys

from quartics.vectorized import all_forms_array, closed_n_batch

sums = {}
for p in map(int, sys.argv[1:]):
    n = [int(v) for v in closed_n_batch(p, all_forms_array(p))]
    sums[str(p)] = [sum(n), sum(v * v for v in n)]
json.dump(sums, sys.stdout)
print()
