"""Exact rational linear programming via a dense two-phase simplex.

Minimization only; all variables are nonnegative.  One primal loop runs
both phases.  Pricing is Dantzig's rule, switched to Bland's rule for the
rest of a phase once its objective stalls, which guarantees termination.
Constraint rows can be appended after a solve and the optimum restored
with dual simplex pivots, which keeps cutting-plane loops cheap.

Row representation.  Every tableau row, and the reduced-cost row (phase
1's or phase 2's), is a list of Python int numerators over one positive
int denominator.  A pivot on column c scales the pivot row to prow / pden
with prow[c] == pden, in lowest terms, then replaces each row with a
nonzero in column c by (row * scale - row[c] / g * prow) / (den * scale),
where g = gcd(row[c], pden) and scale = pden / g: integer-preserving
elimination in the style of Edmonds and Bareiss.  Reduction only bounds
the size of the numbers (the entries of a row are fixed rationals, so its
denominator bounds its numerators), so an eliminated row is brought to
lowest terms only once its denominator reaches 2**_REDUCE_BITS.  Rows are
therefore not always in lowest terms, and the tableau after any step
equals the fully reduced one as rationals, not bit for bit.  Values enter
as Fractions (LpModel rows and cut rows, turned into integer rows over the
lcm of their denominators) or as int costs over one denominator
(with_objective), and leave as Fractions, in lowest terms, only in
solution().

Comparisons stay exact without Fractions.  Entries of one row share its
positive denominator, so pricing compares numerators.  A ratio of two
entries of one row is a ratio of numerators, as the denominator cancels.
Quantities from different rows are compared by integer cross-
multiplication with positive factors.  Every decision is therefore the one
exact rational arithmetic makes, and so are the pivot path and the optimum.

Phase 1 stores no artificial columns.  Each >= and = row gets an
artificial basis id (nstruct + nslack + k, in row order, as if its column
followed the slacks) but no column: a basic artificial's column is a unit
vector, and one that leaves the basis may never re-enter, so its column is
never read.  The phase-1 row starts as minus the sum of the artificial-
basic rows.  Dropping those columns can change the gcd that scales a row
during phase 1, but every decision above is invariant under a positive
row scale, so the path is the same, and so is the tableau after phase 1
as rationals.  The phase-1 stall limit still counts the artificial
columns, as the Bland switch depends on it.

Phase 1 reads no objective either.  Phase 2's row is made once phase 1
ends, by eliminating each basic column from c against that column's unit
row; it equals, as rationals, the row that pivoting c along with phase 1
would give.  So a started tableau (start()) can be priced with any
objective (with_objective()), and phase 2 then takes the path, and
reaches the optimum, of a solve from scratch.
"""

import copy
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import InputError, SolverError, require_count
from .rational import as_fraction, to_json

ZERO = Fraction(0)

# an eliminated row is brought to lowest terms once its denominator
# reaches 2**_REDUCE_BITS; below that, the gcd costs more time than the
# smaller numbers would save
_REDUCE_BITS = 128

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LpModel:
    """Minimize c.x subject to linear constraints, x >= 0.

    Variables are created with add_var (returning an index) and referenced
    by index in constraint coefficient dicts.
    """

    def __init__(self):
        self.names = []
        self.obj = []
        self.constraints = []  # (sense, coeffs dict, rhs); sense in {"<=", ">=", "="}
        self._by_name = {}

    def add_var(self, name, obj=ZERO):
        if name in self._by_name:
            raise InputError(f"duplicate variable name {name!r}")
        idx = len(self.names)
        self.names.append(name)
        self._by_name[name] = idx
        self.obj.append(as_fraction(obj))
        return idx

    def var(self, name):
        return self._by_name[name]

    @property
    def num_vars(self):
        return len(self.names)

    def _check_coeffs(self, coeffs):
        clean = {}
        for j, c in coeffs.items():
            if not (0 <= j < len(self.names)):
                raise InputError(f"constraint references undeclared variable {j}")
            c = as_fraction(c)
            if c:
                clean[j] = c
        return clean

    def add_le(self, coeffs, rhs):
        self.constraints.append(("<=", self._check_coeffs(coeffs), as_fraction(rhs)))

    def add_ge(self, coeffs, rhs):
        self.constraints.append((">=", self._check_coeffs(coeffs), as_fraction(rhs)))

    def add_eq(self, coeffs, rhs):
        self.constraints.append(("=", self._check_coeffs(coeffs), as_fraction(rhs)))

    def to_jsonable(self):
        return to_json({
            "minimize": {n: c for n, c in zip(self.names, self.obj) if c},
            "constraints": [
                {
                    "sense": sense,
                    "coeffs": {self.names[j]: c for j, c in sorted(coeffs.items())},
                    "rhs": rhs,
                }
                for sense, coeffs, rhs in self.constraints
            ],
        })


@dataclass
class LpSolution:
    status: str
    values: dict
    objective: Fraction


class SimplexSolver:
    """Stateful solver: solve() once, then optionally add cut rows and
    reoptimize() with dual simplex.  start() runs phase 1 alone; copies of
    a started solver from with_objective() solve with phase 2 only."""

    def __init__(self, model):
        self.model = model
        self.status = None
        self._rows = []      # tableau row numerators, each length ncols+1 (rhs last)
        self._dens = []      # positive denominator per tableau row
        self._basis = []     # basic column per row
        self._kept = None    # model rows in the tableau, in order, once started; cuts follow
        self._cuts = []      # cut rows as added: (">=", coeffs, rhs)
        self._obj = []       # reduced-cost row numerators: phase 1's, then once priced
        self._obj_den = 1
        self._ncols = 0
        self._nstruct = model.num_vars
        self._pivots = 0

    # -- public API ---------------------------------------------------

    def start(self):
        """Build the tableau and run phase 1, purge included.  Reads only
        the constraint rows, so one started solver can be priced with
        several objectives by with_objective.  Returns self; its status is
        INFEASIBLE if the rows have no feasible point."""
        self._build()
        if not self._phase1():
            self.status = INFEASIBLE
        return self

    def with_objective(self, nums, den, cuts=()):
        """A copy of this started solver, with its own rows, that minimizes
        the structural costs nums / den (int numerators, positive int
        denominator).  Its solve() runs phase 2 only, and its pivots count
        starts from this solver's phase-1 pivots.  A numerator that is not
        an int, a bool included, raises TypeError.

        Each (coeffs, rhs) of cuts is first appended as a cut row and the
        copy made feasible by dual simplex before it is priced: with no
        objective yet every basis is dual feasible.  Its status is then
        INFEASIBLE if the rows and cuts have no feasible point."""
        if self._kept is None or self._obj:
            raise SolverError("with_objective needs a started, unpriced solver")
        if len(nums) != self._nstruct:
            raise InputError(f"{len(nums)} costs for {self._nstruct} variables")
        if any(type(c) is not int for c in nums):
            raise TypeError("cost numerators must be ints, not bools, floats or Fractions")
        require_count(den, "den")
        priced = copy.copy(self)
        priced._rows = [row[:] for row in self._rows]
        priced._dens = self._dens[:]
        priced._basis = self._basis[:]
        priced._cuts = self._cuts[:]
        if cuts and priced.status is None:
            priced._obj, priced._obj_den = [0] * (self._ncols + 1), 1
            for coeffs, rhs in cuts:
                priced.add_ge_cut(coeffs, rhs)
            if priced.reoptimize().status == OPTIMAL:
                priced.status = None
        if priced.status is None:
            priced._obj, priced._obj_den = priced._in_basis(
                list(nums) + [0] * (priced._ncols + 1 - self._nstruct), den)
        return priced

    def solve(self):
        """Phase 1 unless start() ran it, then phase 2 on the model's
        objective, or on the costs with_objective gave this copy."""
        if self._kept is None:
            self.start()
        if self.status is None:
            if not self._obj:
                self._obj, self._obj_den = self._in_basis(
                    *_int_row(dict(enumerate(self.model.obj)), ZERO, self._ncols))
            self.status = OPTIMAL if self._optimize() else UNBOUNDED
        return self.solution()

    def add_ge_cut(self, coeffs, rhs):
        """Append coeffs . x >= rhs to a solved program.

        Several cuts may be stacked before one reoptimize(): extra rows
        leave the reduced costs nonnegative, so the tableau stays dual
        feasible.  Coefficients may name structural variables only.
        """
        self._require_optimal("cuts can only be added after a successful solve")
        coeffs = self.model._check_coeffs(coeffs)
        rhs = as_fraction(rhs)
        slack_col = self._ncols
        # new slack column, basic in the new row
        for r in self._rows:
            r.insert(slack_col, 0)
        self._obj.insert(slack_col, 0)
        self._ncols += 1
        row, den = _int_row({j: -c for j, c in coeffs.items()}, -rhs, self._ncols)
        row[slack_col] = den
        row, den = self._in_basis(row, den)
        self._rows.append(row)
        self._dens.append(den)
        self._basis.append(slack_col)
        self._cuts.append((">=", coeffs, rhs))
        self.status = None

    def reoptimize(self):
        """Restore primal feasibility (after cuts) with dual simplex."""
        self._require_optimal("reoptimize needs a successful solve")
        rows, dens, basis, obj = self._rows, self._dens, self._basis, self._obj
        steps = 0
        bland_after = 60 + 2 * (len(rows) + self._ncols)
        while True:
            steps += 1
            r = -1
            if steps > bland_after:
                # dual Bland: lowest basis index among infeasible rows
                for i, row in enumerate(rows):
                    if row[-1] < 0 and (r == -1 or basis[i] < basis[r]):
                        r = i
            else:
                # most negative rhs, ties to the lowest basis index
                for i, row in enumerate(rows):
                    v = row[-1]
                    if v < 0:
                        if r == -1:
                            r = i
                            continue
                        diff = v * dens[r] - rows[r][-1] * dens[i]
                        if diff < 0 or (diff == 0 and basis[i] < basis[r]):
                            r = i
            if r == -1:
                break
            row = rows[r]
            # dual ratio obj[j] / -row[j]; the two rows' denominators are
            # a common positive factor, so numerators decide.  Ties keep
            # the lowest column.
            best_j = -1
            for j in range(self._ncols):
                a = row[j]
                if a < 0 and (best_j == -1 or obj[j] * -row[best_j] < obj[best_j] * -a):
                    best_j = j
            if best_j == -1:
                self.status = INFEASIBLE
                return self.solution()
            self._pivot(r, best_j)
            obj = self._obj
        self.status = OPTIMAL
        return self.solution()

    def solution(self):
        if self.status != OPTIMAL:
            return LpSolution(status=self.status, values={}, objective=None)
        vals = [ZERO] * self._nstruct
        for i, bc in enumerate(self._basis):
            if bc < self._nstruct:
                vals[bc] = Fraction(self._rows[i][-1], self._dens[i])
        values = {name: vals[j] for j, name in enumerate(self.model.names)}
        return LpSolution(status=OPTIMAL, values=values,
                          objective=Fraction(-self._obj[-1], self._obj_den))

    @property
    def pivots(self):
        return self._pivots

    def rows(self):
        """The LP's rows as (sense, coeffs, rhs), numbered as basis()
        numbers them: the model's constraints, then each cut row as added."""
        return self.model.constraints + self._cuts

    def basis(self):
        """{row: basic column} for each LP row of rows() still in the
        tableau; a row phase 1 dropped as redundant is absent.  A column
        below model.num_vars is that variable, and num_vars + r is the
        slack of row r."""
        if self._kept is None or self.status == INFEASIBLE:
            raise SolverError("basis needs a started, feasible solver")
        nv, rows = self._nstruct, self.rows()
        # slack columns follow the variables, one per inequality row in row order
        slack_rows = [r for r, (sense, _, _) in enumerate(rows) if sense != "="]
        row_ids = [*self._kept, *range(len(self.model.constraints), len(rows))]
        return {r: bc if bc < nv else nv + slack_rows[bc - nv]
                for r, bc in zip(row_ids, self._basis, strict=True)}

    def _require_optimal(self, message):
        # an optimal tableau, possibly with cut rows added since
        if self.status not in (OPTIMAL, None) or not self._obj:
            raise SolverError(message)

    # -- construction ---------------------------------------------------

    def _build(self):
        m = self.model
        # a sign flip swaps <= and >= but keeps the slack count
        ncols = m.num_vars + sum(1 for sense, _, _ in m.constraints if sense != "=")
        tableau = []
        dens = []
        basis = []
        si = m.num_vars
        ai = ncols  # artificial basis ids follow the slacks; no column is stored
        for sense, coeffs, rhs in m.constraints:
            if rhs < 0:
                coeffs = {j: -c for j, c in coeffs.items()}
                rhs = -rhs
                sense = {"<=": ">=", ">=": "<=", "=": "="}[sense]
            full, den = _int_row(coeffs, rhs, ncols)
            if sense == "<=":
                full[si] = den
                basis.append(si)
                si += 1
            else:
                if sense == ">=":
                    full[si] = -den
                    si += 1
                basis.append(ai)
                ai += 1
            tableau.append(full)
            dens.append(den)

        self._rows = tableau
        self._dens = dens
        self._basis = basis
        self._kept = tuple(range(len(m.constraints)))
        self._ncols = ncols

    def _in_basis(self, row, den):
        """row / den with every basic column eliminated against its unit
        row, which is zero in every other basic column, so one pass
        suffices; row itself may be updated in place."""
        for i, bc in enumerate(self._basis):
            if row[bc]:
                row, den = _eliminate(row, den, _nonzeros(self._rows[i]), self._dens[i], bc)
        return row, den

    # -- phases ---------------------------------------------------------

    def _phase1(self):
        """False if the rows have no feasible point; ends at once if no row has an artificial."""
        art_rows = [i for i, bc in enumerate(self._basis) if bc >= self._ncols]
        # minus the sum of the artificial-basic rows: the phase-1 reduced costs
        den = lcm(*(self._dens[i] for i in art_rows))
        p1 = [0] * (self._ncols + 1)
        for i in art_rows:
            f = den // self._dens[i]
            for j, a in _nonzeros(self._rows[i]):
                p1[j] -= f * a
        self._obj, self._obj_den = _reduced(p1, den)
        # the stall limit counts the artificial columns as if they were stored
        if not self._optimize(nart=len(art_rows)):
            raise SolverError("phase 1 cannot be unbounded")
        feasible = self._obj[-1] == 0
        self._obj = []
        if feasible:
            self._purge_artificials()
        return feasible

    def _purge_artificials(self):
        """Pivot artificials out of the basis and drop redundant rows."""
        drop = []
        for i, row in enumerate(self._rows):
            if self._basis[i] < self._ncols:
                continue
            pivot_col = next((j for j in range(self._ncols) if row[j]), -1)
            if pivot_col == -1:
                drop.append(i)  # all-zero in real columns: redundant row
            else:
                self._pivot(i, pivot_col)
        for i in reversed(drop):
            del self._rows[i]
            del self._dens[i]
            del self._basis[i]
        self._kept = tuple(r for i, r in enumerate(self._kept) if i not in drop)

    # -- core mechanics ---------------------------------------------------

    def _optimize(self, nart=0):
        """Primal simplex on the reduced-cost row: True at an optimum,
        False if unbounded."""
        stall_limit = 60 + 2 * (len(self._rows) + self._ncols + nart)
        bland, stall, last = False, 0, None  # last: (numerator, den) of the last new value
        while True:
            objrow, den = self._obj, self._obj_den
            if last is None or objrow[-1] * last[1] != last[0] * den:
                last, stall = (objrow[-1], den), 0
            else:
                stall += 1
                bland = bland or stall > stall_limit
            # one row shares one positive denominator, so numerators decide
            if bland:
                c = next((j for j in range(self._ncols) if objrow[j] < 0), -1)
            else:
                # Dantzig: the first most negative reduced cost
                costs = objrow[:self._ncols]
                best = min(costs, default=0)
                c = costs.index(best) if best < 0 else -1
            if c == -1:
                return True
            r = self._leaving(c)
            if r == -1:
                return False
            self._pivot(r, c)

    def _leaving(self, c):
        # ratio rhs / row[c]: the row's denominator cancels, and rows are
        # compared by cross-multiplying with the positive row[c]
        best = -1
        for i, row in enumerate(self._rows):
            a = row[c]
            if a > 0:
                if best == -1:
                    best, best_rhs, best_a = i, row[-1], a
                    continue
                diff = row[-1] * best_a - best_rhs * a
                if diff < 0 or (diff == 0 and self._basis[i] < self._basis[best]):
                    best, best_rhs, best_a = i, row[-1], a
        return best

    def _pivot(self, r, c):
        self._pivots += 1
        rows, dens = self._rows, self._dens
        # scale the pivot row to a unit pivot: prow / pden with prow[c] == pden
        prow = rows[r]
        pden = prow[c]
        if pden < 0:
            prow = [-x for x in prow]
            pden = -pden
        prow, pden = _reduced(prow, pden)
        rows[r] = prow
        dens[r] = pden
        pnz = _nonzeros(prow)
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i], dens[i] = _eliminate(row, dens[i], pnz, pden, c)
        if self._obj and self._obj[c]:
            self._obj, self._obj_den = _eliminate(self._obj, self._obj_den, pnz, pden, c)
        self._basis[r] = c


def _reduced(nums, den):
    """nums / den with the common factor of every entry and den removed."""
    if den == 1:
        return nums, den
    g = gcd(den, *nums)
    if g == 1:
        return nums, den
    return [x // g for x in nums], den // g


def _eliminate(row, den, pnz, pden, c):
    """row / den minus its column-c multiple of the unit-pivot row
    prow / pden, given as its nonzero (column, numerator) pairs with
    prow[c] == pden.  Returns numerators and a positive denominator,
    reduced only once the denominator reaches 2**_REDUCE_BITS; row itself
    may be updated in place."""
    g = gcd(row[c], pden)
    f = row[c] // g
    scale = pden // g  # smallest multiplier that clears pden from f / pden
    if scale != 1:
        row = [a * scale for a in row]
        den *= scale
    for j, b in pnz:
        row[j] -= f * b
    if den >> _REDUCE_BITS:
        return _reduced(row, den)
    return row, den


def _nonzeros(row):
    return [(j, b) for j, b in enumerate(row) if b]


def _int_row(coeffs, rhs, ncols):
    """Integer numerators over one common denominator, in lowest terms, for
    the Fraction coefficients (column -> value) and rhs of a row with ncols
    columns."""
    den = lcm(rhs.denominator, *(c.denominator for c in coeffs.values()))
    row = [0] * (ncols + 1)
    for j, c in coeffs.items():
        row[j] = c.numerator * (den // c.denominator)
    row[-1] = rhs.numerator * (den // rhs.denominator)
    return row, den


def simplex_solve(model):
    """Solve an LpModel to exact optimality (or report infeasible/unbounded)."""
    return SimplexSolver(model).solve()
