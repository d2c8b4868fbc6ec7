"""Workload inputs: base configs, the seeded rewrite of them, and the command
lists that the worker runs through ``nevlab.cli.main``.

Each ``data/<workload>.json`` (written by make_data.py) holds

- ``configs``: name -> {"ini": config text, "tol": float,
  "commands": [argv prefix, ...]}, each prefix run as
  ``<prefix> --config <file> --out <file>``;
- ``reference``: "<config>:<prefix joined by spaces>" -> the output of that
  command on the base config at the commit that made the data (see
  checks.py), including "<config>:check" for every config.
"""

from __future__ import annotations

import configparser
import json
import random
from dataclasses import dataclass
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent / "data"

# The first three are listed in BENCHMARK.json.  ``edges`` is run by name
# only: its rows fail by design, and a listed workload must have no failed
# row, so that any rise in ``failed`` marks a regression.
WORKLOADS = ("shipped", "stress", "exact", "edges")


@dataclass(frozen=True)
class Command:
    config: str
    prefix: tuple

    @property
    def key(self) -> str:
        return f"{self.config}:{' '.join(self.prefix)}"


def load(workload: str) -> dict:
    with open(DATA_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _signed(text: str, sign: int) -> str:
    text = text.strip()
    return text if sign > 0 or text == "0" else f"-({text})"


def twist(ini: str, rng: random.Random) -> str:
    """Rewrite a config without changing anything the program reports.

    Coordinate k and column k of every form are multiplied by a sign s_k,
    and form j by a sign t_j.  Then |L_j(x)|, the norms of all derived
    curves, the zero sets and the general-position tuples are the same as
    before, so every output must match the base config's reference while
    the exact arithmetic sees other signs.  The cost stays the same: signs
    keep zero entries zero and real coefficients real, where units i^k slow
    down Q(i) products, and the forms keep their order, which sets the work
    of cofactor expansion in ``det_exact``.
    """
    cp = configparser.ConfigParser()
    cp.read_string(ini)
    coords = [c for c in cp["curve"]["coords"].split(";") if c.strip()]
    s = [rng.choice((1, -1)) for _ in coords]
    forms = [f.split(",") for f in cp["hyperplanes"]["forms"].split(";") if f.strip()]
    new_forms = []
    for form in forms:
        t = rng.choice((1, -1))
        new_forms.append(", ".join(_signed(c, t * sk) for c, sk in zip(form, s)))
    sweep = "".join(f"{key} = {value}\n" for key, value in cp["sweep"].items())
    return (f"[curve]\ncoords = "
            + "; ".join(_signed(c, sk) for c, sk in zip(coords, s))
            + "\n\n[hyperplanes]\nforms = " + "; ".join(new_forms)
            + f"\n\n[sweep]\n{sweep}")


def pick(data: dict, seed: int):
    """The seed's configs (name -> text) and its shuffled command list."""
    rng = random.Random(seed)
    configs = {name: twist(conf["ini"], rng)
               for name, conf in data["configs"].items()}
    commands = [Command(name, tuple(prefix))
                for name, conf in data["configs"].items()
                for prefix in conf["commands"]]
    rng.shuffle(commands)
    return configs, commands


def argv(cmd: Command, config_path: Path, out_path: Path) -> list:
    return [*cmd.prefix, "--config", str(config_path), "--out", str(out_path)]
