"""Correctness checks that share no code with cardnet.

A small DIMACS reader and unit propagator check the encoders' outputs on
sampled full input fixings: a fixing that violates the source constraints
must propagate to a conflict, one that satisfies them must not.  At-most-k
lines must also be arc-consistent at the bound.  A knapsack dynamic program
gives the reference optimum for `optimize`.
"""

from __future__ import annotations


class Dimacs:
    """Clauses of a DIMACS CNF file, with literal occurrence lists."""

    def __init__(self, text: str):
        self.num_vars, declared = 0, None
        self.clauses: list[tuple[int, ...]] = []
        for line in text.splitlines():
            if not line or line[0] in "c%":
                continue
            if line[0] == "p":
                parts = line.split()
                if len(parts) != 4 or parts[1] != "cnf":
                    raise ValueError(f"bad DIMACS header {line!r}")
                self.num_vars = int(parts[2])
                declared = int(parts[3])
                continue
            lits = [int(tok) for tok in line.split()]
            if not lits or lits[-1] != 0:
                raise ValueError(f"clause line without terminating 0: {line[:40]!r}")
            self.clauses.append(tuple(lits[:-1]))
        if declared is None:
            raise ValueError("missing DIMACS header")
        if len(self.clauses) != declared:
            raise ValueError(f"header declares {declared} clauses, found {len(self.clauses)}")
        self.occ: list[list[int]] = [[] for _ in range(2 * self.num_vars + 1)]
        for ci, clause in enumerate(self.clauses):
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range")
                self.occ[lit].append(ci)   # negative index counts from the end

    def propagate(self, assumptions: list[int]) -> tuple[bool, list[int]]:
        """Unit propagation from the assumptions.  Returns (conflict, values)
        with values[v] in {1, -1, 0}."""
        val = [0] * (self.num_vars + 1)
        queue: list[int] = []

        def assign(lit: int) -> bool:
            v = val[abs(lit)]
            if v:
                return (v > 0) == (lit > 0)
            val[abs(lit)] = 1 if lit > 0 else -1
            queue.append(lit)
            return True

        for clause in self.clauses:
            if len(clause) == 0 or (len(clause) == 1 and not assign(clause[0])):
                return True, val
        for lit in assumptions:
            if not assign(lit):
                return True, val
        head = 0
        clauses = self.clauses
        while head < len(queue):
            falsified = -queue[head]
            head += 1
            for ci in self.occ[falsified]:
                free = 0
                for lit in clauses[ci]:
                    v = val[abs(lit)]
                    if v == 0:
                        if free:
                            break          # two free literals: not unit
                        free = lit
                    elif (v > 0) == (lit > 0):
                        break              # satisfied
                else:
                    if not free:
                        return True, val
                    assign(free)
        return False, val


def fixing_lits(model: list[bool]) -> list[int]:
    return [v if model[v] else -v for v in range(1, len(model))]


def check_fixings(cnf: Dimacs, fixings: list[list[bool]], holds) -> list[str]:
    """A fixing conflicts under unit propagation iff it violates the source."""
    errors = []
    for i, model in enumerate(fixings):
        conflict, _ = cnf.propagate(fixing_lits(model))
        if conflict == holds(model):
            errors.append(f"fixing {i}: {'satisfying' if conflict else 'violating'} "
                          f"input {'conflicts' if conflict else 'does not conflict'}")
    return errors


def check_card_output(cnf: Dimacs, inst) -> list[str]:
    errors = check_fixings(cnf, inst.fixings, inst.satisfied)
    for j, true_lits in inst.ac_probes:
        line = inst.lines[j]
        conflict, val = cnf.propagate(true_lits)
        if conflict:
            errors.append(f"line {j}: conflict with {line.k} literals true")
            continue
        chosen = set(true_lits)
        for lit in line.lits:
            if lit not in chosen and val[abs(lit)] != (-1 if lit > 0 else 1):
                errors.append(f"line {j}: literal {lit} not propagated false at the bound")
                break
    return errors


def check_pb_output(cnf: Dimacs, inst) -> list[str]:
    return check_fixings(cnf, inst.fixings, inst.holds)


def knapsack_best(values: list[int], weights: list[int], capacity: int) -> int:
    """Largest total value within the capacity, by dynamic programming over
    total value (weights may be large, values are small)."""
    lightest = [0] + [capacity + 1] * sum(values)     # least weight per value
    for v, w in zip(values, weights):
        for total in range(len(lightest) - 1, v - 1, -1):
            if lightest[total - v] + w < lightest[total]:
                lightest[total] = lightest[total - v] + w
    return max(total for total, w in enumerate(lightest) if w <= capacity)


def check_optimize_output(stdout: str, inst, expected: int) -> list[str]:
    """The reported optimum equals the expected (DP) optimum, and the
    printed model is feasible and attains it."""
    reported, model = None, {}
    for line in stdout.splitlines():
        if line.startswith("o "):
            reported = int(line[2:])
        elif line.startswith("v "):
            for tok in line[2:].split():
                lit = int(tok)
                if lit:
                    model[abs(lit)] = lit > 0
    if reported != expected:
        return [f"reported optimum {reported}, expected {expected}"]
    xs = [model.get(i + 1, False) for i in range(len(inst.values))]
    weight = sum(w for w, x in zip(inst.weights, xs) if x)
    value = -sum(v for v, x in zip(inst.values, xs) if x)
    if weight > inst.capacity or value != expected:
        return [f"model weight {weight} (capacity {inst.capacity}), value {value}"]
    return []
