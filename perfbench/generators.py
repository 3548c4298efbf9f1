"""Seeded family generators for the benchmark workloads.

Every generator takes a ``random.Random`` and returns a :class:`Model`;
the same seed gives the same model.  Probabilities are dyadic except in the
stiff ladder, whose self-loops are the point of that family.
"""

from __future__ import annotations

import random
from fractions import Fraction

from model import Draft, Model, from_family, relabel

F = Fraction


def maze(rng: random.Random, width: int, height: int, classes: int,
         domain: int) -> Model:
    """Grid controller sketch with shared next-waypoint holes.

    Every cell of a ``width`` x ``height`` grid belongs to one of
    ``classes`` observation classes.  A controller that cannot tell the
    cells of a class apart picks one next waypoint per class: parameter
    ``wp<c>`` ranges over ``domain`` candidate cells (the goal cell among
    them for every other class).  From a cell the robot reaches the class
    waypoint with probability 5/8, slips to a fixed neighbour with 1/4 and
    crashes with 1/8.  The quotient lets every cell pick its own waypoint,
    so its minimum and maximum lie far apart until the class parameters
    are split.
    """
    b = Draft()
    cells = [[b.state() for _ in range(width)] for _ in range(height)]
    goal = b.state(label="goal")
    crash = b.state()
    flat = [c for row in cells for c in row]
    start = cells[0][0]
    shuffled = flat[:]
    rng.shuffle(shuffled)
    cls = {c: i % classes for i, c in enumerate(shuffled)}
    wps = []
    for c in range(classes):
        cand = rng.sample(flat, domain - 1 if c % 2 == 0 else domain)
        if c % 2 == 0:
            cand.insert(rng.randrange(domain), goal)
        wps.append(b.param(f"wp{c}", cand))
    for y in range(height):
        for x in range(width):
            c = cells[y][x]
            # slip one step back towards the start; where that leaves the
            # grid, one step diagonally forward
            nx, ny = (x - 1, y) if (x + y) % 2 else (x, y - 1)
            if nx < 0 or ny < 0:
                nx, ny = min(x + 1, width - 1), min(y + 1, height - 1)
            b.row(c, (F(5, 8), wps[cls[c]]), (F(1, 4), b.to(cells[ny][nx])),
                  (F(1, 8), b.to(crash)))
    b.row(goal, (1, b.to(goal)))
    b.row(crash, (1, b.to(crash)))
    return b.build(start, with_rewards=False)


def pipeline(rng: random.Random, stages: int, variants: int) -> Model:
    """DPM/BSN-style product line: one variant parameter per stage.

    Parameter ``v<i>`` picks the component variant of stage ``i``.  A
    variant spends its energy (the state reward) and succeeds with its own
    probability, moving on to the variant chosen for stage ``i+1``; on
    failure a retry state (energy 1) re-enters the stage's variant through
    the same ``v<i>`` or rolls back through ``v<i-1>``.  The retry paths
    reuse the stage parameters, so quotient schedulers that pick different
    variants on the main and the retry path are inconsistent.
    """
    b = Draft()
    start = b.state()
    variant = [[b.state(reward=rng.randint(1, 8)) for _ in range(variants)]
               for _ in range(stages)]
    retry = [b.state(reward=1) for _ in range(stages)]
    done = b.state(label="done")
    v = [b.param(f"v{i}", variant[i]) for i in range(stages)]
    b.row(start, (1, v[0]))
    for i in range(stages):
        nxt = v[i + 1] if i + 1 < stages else b.to(done)
        for x in variant[i]:
            # cheap variants fail more often: success 1/8 .. 3/4
            ok = F(rng.randint(1, 6), 8)
            b.row(x, (ok, nxt), (1 - ok, b.to(retry[i])))
        if i == 0:
            b.row(retry[i], (1, v[0]))
        else:
            back = F(rng.randint(1, 3), 8)
            b.row(retry[i], (1 - back, v[i]), (back, v[i - 1]))
    b.row(done, (1, b.to(done)))
    return b.build(start, with_rewards=True)


def ladder(loop: Fraction) -> Model:
    """Stiff rung: the initial state keeps ``loop`` on a self-loop and
    splits the rest evenly between the goal and a sink, so every member's
    value is exactly 1/2.  A two-value dummy parameter on the goal's own
    row makes it a two-member family."""
    b = Draft()
    s0 = b.state()
    goal = b.state(label="goal")
    sink = b.state()
    dummy = b.param("d", (goal, sink))
    rest = (1 - loop) / 2
    b.row(s0, (loop, b.to(s0)), (rest, b.to(goal)), (rest, b.to(sink)))
    b.row(goal, (1, dummy))
    b.row(sink, (1, b.to(sink)))
    return b.build(s0, with_rewards=False)


def slow_mixing(rng: random.Random, states: int, params: int, domain: int,
                stay: Fraction) -> Model:
    """Small random family whose every state keeps ``stay`` on a self-loop
    and sends the rest to two of the ``params`` shared parameters, so value
    iteration needs hundreds of sweeps while the quotient stays tiny."""
    b = Draft()
    ss = [b.state(reward=rng.randint(0, 4)) for _ in range(states)]
    goal = ss[-1]
    b.labels["goal"] = [goal]
    ps = [b.param(f"k{i}", sorted(rng.sample(ss, domain)))
          for i in range(params)]
    for s in ss[:-1]:
        picks = rng.sample(ps, 2)
        half = (1 - stay) / 2
        b.row(s, (stay, b.to(s)), (half, picks[0]), (half, picks[1]))
    b.row(goal, (1, b.to(goal)))
    # the last non-goal state moves straight to the goal
    b.row(ss[-2], (stay, b.to(ss[-2])), (1 - stay, b.to(goal)))
    return b.build(ss[0], with_rewards=True)


def random_family(rng: random.Random, seed: int, **settings) -> Model:
    """famsynth's own ``random_family`` at fixed settings, presented under a
    seeded relabelling of its states."""
    from famsynth import random_family as make

    return relabel(from_family(make(seed, **settings)), rng)
