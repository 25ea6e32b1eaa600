"""README's determinism contract, checked against the package's source.

The contract says which artifact bytes may move with the numpy or scipy
version, or with the C library behind Python's ``math``. This test parses
every module of ``src/bcfsim`` and lists each callable of those libraries
that it reaches: ``np.X``, ``np.random.X``, ``np.add.reduce`` and the like,
``math.X``, and every ``scipy.special`` name imported or called. ``CONTRACT``
classifies each one by the artifact groups whose last bits its results can
move:

- datasets: the synthetic draws (digests.csv, the scatter files, and
  everything computed from a draw);
- draws: the posterior draws of every fit;
- metrics: the per-fit metrics computed from the draws, and their summaries;
- p-values: the rank tests' p-values.

An empty entry moves none: it is exact under IEEE arithmetic (a comparison,
a copy, ``sqrt``), counts integers, or reaches no artifact. The test fails
on a reached name the table does not list, on a listed name nothing
reaches, and on a group's name the README's bullet for that group does not
give. Methods of arrays and generators (``.sum()``, ``rng.gamma``) are not
listed by name; the contract covers them as summation order and as the
generator.

The perturbation test below checks each ``scipy.special`` row by running
the code: each function, wrapped where its module looks it up, returns the
next float up, and a tiny study must then move the row's group first and
no group upstream of it.
"""

import ast
import hashlib
import importlib
import re
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from bcfsim import bart, harness, ranktests
from bcfsim.harness import ExperimentConfig, run_experiment

ROOT = Path(__file__).resolve().parents[1]
LIBRARIES = ("numpy", "scipy", "math")
GROUPS = ("datasets", "draws", "metrics", "p-values")

CONTRACT = {
    "math.exp": ("draws",),
    "math.isfinite": (),
    "math.log": ("draws",),
    "math.log1p": ("draws",),
    "math.sqrt": (),
    "numpy.abs": (),
    "numpy.add.reduce": ("draws",),
    "numpy.add.reduceat": (),
    "numpy.all": (),
    "numpy.any": (),
    "numpy.arange": (),
    "numpy.argsort": (),
    "numpy.array": (),
    "numpy.asarray": (),
    "numpy.ascontiguousarray": (),
    "numpy.asfortranarray": (),
    "numpy.bincount": (),
    "numpy.clip": (),
    "numpy.column_stack": (),
    "numpy.concatenate": (),
    "numpy.copysign": (),
    "numpy.cumsum": (),
    "numpy.diff": (),
    "numpy.empty": (),
    "numpy.errstate": (),
    "numpy.finfo": (),
    "numpy.flatnonzero": (),
    "numpy.float_power": ("p-values",),
    "numpy.fromiter": (),
    "numpy.full": (),
    "numpy.int8": (),
    "numpy.intp": (),
    "numpy.iscomplexobj": (),
    "numpy.isfinite": (),
    "numpy.isscalar": (),
    "numpy.linspace": ("draws",),
    "numpy.log": ("draws",),
    "numpy.maximum": (),
    "numpy.maximum.reduce": (),
    "numpy.mean": ("metrics",),
    "numpy.median": ("p-values",),
    "numpy.min_scalar_type": (),
    "numpy.minimum": (),
    "numpy.minimum.reduce": (),
    "numpy.ndarray": (),
    "numpy.not_equal": (),
    "numpy.quantile": ("metrics",),
    "numpy.random.SeedSequence": ("datasets", "draws"),
    "numpy.random.default_rng": ("datasets", "draws"),
    "numpy.repeat": (),
    "numpy.searchsorted": (),
    "numpy.sin": ("datasets",),
    "numpy.sqrt": (),
    "numpy.unique": (),
    "numpy.where": (),
    "numpy.zeros": (),
    "scipy.special.chdtrc": ("p-values",),
    "scipy.special.expit": ("datasets",),
    "scipy.special.fdtrc": ("p-values",),
    "scipy.special.gammaincinv": ("draws",),
    "scipy.special.log_ndtr": ("draws",),
    "scipy.special.ndtr": ("draws", "p-values"),
    "scipy.special.ndtri": ("draws",),
    "scipy.special.ndtri_exp": ("draws",),
}


def _resolve(dotted: str):
    """The object a dotted name reaches: its longest importable module
    prefix, then attributes."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for part in parts[i:]:
            obj = getattr(obj, part)
        return obj
    raise ImportError(dotted)


def _library_names(tree: ast.Module) -> set[str]:
    """The dotted names of the library objects a module imports by name or
    reaches through an attribute chain on an imported library module."""
    bound, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                bound[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                bound[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}")
                names.add(f"{node.module}.{alias.name}")
    inner = {id(node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            attrs = []
            while isinstance(node, ast.Attribute):
                attrs.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in bound:
                names.add(".".join([bound[node.id], *reversed(attrs)]))
    return {name for name in names if name.split(".")[0] in LIBRARIES}


def _reached() -> set[str]:
    """Every library callable a module of the package reaches."""
    reached = set()
    for path in sorted((ROOT / "src" / "bcfsim").glob("*.py")):
        for name in _library_names(ast.parse(path.read_text("utf-8"))):
            obj = _resolve(name)
            if callable(obj) and not isinstance(obj, types.ModuleType):
                reached.add(name)
    return reached


def _contract_bullets() -> dict[str, str]:
    """README's determinism-contract bullets, by the group each leads
    with in bold, each joined into one line."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Determinism contract\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    bullets = {}
    for bullet in re.split(r"\n(?=- )", section):
        lead = re.match(r"- \*\*([\w-]+)\*\*", bullet)
        if lead:
            bullets[lead.group(1).lower()] = " ".join(bullet.split())
    return bullets


def test_every_library_callable_is_in_the_contract_table():
    reached = _reached()
    assert sorted(reached - set(CONTRACT)) == [], "reached but not listed"
    assert sorted(set(CONTRACT) - reached) == [], "listed but not reached"
    for name, groups in CONTRACT.items():
        assert set(groups) <= set(GROUPS), name


def test_readme_names_each_entry_under_its_groups():
    bullets = _contract_bullets()
    assert sorted(bullets) == sorted(GROUPS)
    for name, groups in CONTRACT.items():
        library, short = re.match(r"(scipy\.special|numpy|math)\.(.+)",
                                  name).groups()
        spelled = re.compile(rf"`(?:{re.escape(library)}\.)?"
                             rf"{re.escape(short)}`")
        for group in groups:
            assert spelled.search(bullets[group]), (name, group)


# ---------------------------------------------------- the perturbation test

# The group each scipy.special lookup moves first in ``_tiny_study``; the
# ndtr row names two groups, one per module that looks it up. None marks a
# lookup the study never reaches, which a test below reaches directly:
# log_ndtr and ndtri_exp run only where a probit forest output passes
# |g| of about 37.5; Levene's F tail runs only on a sample with spread
# about its centre, which a two-value sample never has; and Kruskal-Wallis
# runs only on rows Levene's gate passes, which with two replicates is a
# row whose two models' values are equally spread.
FIRST_MOVED = {
    "bcfsim.bart.gammaincinv": "draws",
    "bcfsim.bart.log_ndtr": None,
    "bcfsim.bart.ndtr": "draws",
    "bcfsim.bart.ndtri": "draws",
    "bcfsim.bart.ndtri_exp": None,
    "bcfsim.dgp.expit": "datasets",
    "bcfsim.ranktests.chdtrc": None,
    "bcfsim.ranktests.fdtrc": None,
    "bcfsim.ranktests.ndtr": "p-values",
}


def _special_lookups() -> dict:
    """``{"<module>.<name>": (owner, name)}``: each scipy.special function
    a module of the package reaches, and the namespace it looks the name
    up in, the module's own or scipy.special's (``special.ndtr``)."""
    lookups = {}
    for path in sorted((ROOT / "src" / "bcfsim").glob("*.py")):
        module = importlib.import_module(f"bcfsim.{path.stem}")
        for name in _library_names(ast.parse(path.read_text("utf-8"))):
            if name.startswith("scipy.special."):
                short = name.rsplit(".", 1)[1]
                owner = module if short in vars(module) else scipy.special
                lookups[f"{module.__name__}.{short}"] = (owner, short)
    return lookups


def _next_up(function):
    """``function`` returning the next float up from each result."""
    return lambda *args: np.nextafter(function(*args), np.inf)


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _group_of(name: str):
    """The artifact group of a run file; None for the configuration and
    the wall-clock timing."""
    if name == "digests.csv" or name.startswith("scatter_"):
        return "datasets"
    if name == "replicates.csv" or name.startswith(("summary_", "boxplot_")):
        return "metrics"
    if name.startswith("pvalues_"):
        return "p-values"
    assert name in ("run_config.json", "timing.json"), name
    return None


def _tiny_study(out: Path, monkeypatch) -> dict:
    """Each artifact group's digests from one tiny run into ``out``: per
    file, and for the draws per fit, in fit order (every posterior array
    and the propensity column the fit used). The cell checkpoints under
    cells/ hold the wall-clock seconds and are left out."""
    draws = []
    fit_bcf = harness.fit_bcf

    def digesting_fit_bcf(*args, **kwargs):
        fit = fit_bcf(*args, **kwargs)
        draws.append(_digest(b"".join(
            np.ascontiguousarray(a).tobytes() for a in (
                fit.mu_draws, fit.tau_draws, fit.sigma_draws, fit.pi_used))))
        return fit

    monkeypatch.setattr(harness, "fit_bcf", digesting_fit_bcf)
    # master seed 2 draws both arms in each dataset, and a sigma step whose
    # sum keeps the last bit a gammaincinv ulp moves in the prior's scale
    # (at seeds 3 and 5 every such bit rounds away)
    config = ExperimentConfig(selections=("moderate",), alphas=(2.0,), n=40,
                              replicates=2, master_seed=2, iterations=4,
                              burn_in=2)
    with warnings.catch_warnings():
        # two replicates are below Fligner-Policello's normal approximation
        warnings.simplefilter("ignore", UserWarning)
        run_experiment(config, out)
    monkeypatch.undo()
    groups = {group: {} for group in GROUPS}
    groups["draws"] = dict(enumerate(draws))
    for path in out.iterdir():
        if path.is_file() and _group_of(path.name) is not None:
            groups[_group_of(path.name)][path.name] = _digest(
                path.read_bytes())
    return groups


@pytest.fixture(scope="module")
def plain_study(tmp_path_factory):
    with pytest.MonkeyPatch.context() as monkeypatch:
        return _tiny_study(tmp_path_factory.mktemp("plain"), monkeypatch)


def test_every_special_lookup_has_an_expected_group():
    assert sorted(_special_lookups()) == sorted(FIRST_MOVED)
    for lookup, group in FIRST_MOVED.items():
        name = "scipy.special." + lookup.rsplit(".", 1)[1]
        assert group is None or group in CONTRACT[name], lookup


@pytest.mark.parametrize("lookup", sorted(FIRST_MOVED))
def test_a_nudged_special_function_moves_its_group_first(
        lookup, plain_study, tmp_path, monkeypatch):
    owner, name = _special_lookups()[lookup]
    monkeypatch.setattr(owner, name, _next_up(getattr(owner, name)))
    nudged = _tiny_study(tmp_path / "run", monkeypatch)
    for group in GROUPS:
        assert sorted(nudged[group]) == sorted(plain_study[group]), group
    moved = [group for group in GROUPS
             if nudged[group] != plain_study[group]]
    assert (moved[0] if moved else None) == FIRST_MOVED[lookup]


@pytest.mark.parametrize("name", ["log_ndtr", "ndtri_exp"])
def test_a_nudged_far_tail_function_moves_the_probit_draws(name,
                                                           monkeypatch):
    # forest outputs past |g| = 37.5, each on the side of 0 its d does not
    # allow; a log_ndtr ulp shifts a draw by about 1/|g| of its own ulp, so
    # only some of the draws round to another float
    def latent_draws():
        g = np.concatenate([-np.linspace(38.0, 45.0, 8),
                            np.linspace(38.0, 45.0, 8)])
        z = np.zeros(len(g))
        bart._probit_latent(z - g, z, g < 0, np.random.default_rng(0))
        return z

    plain = latent_draws()
    monkeypatch.setattr(bart, name, _next_up(getattr(bart, name)))
    assert (latent_draws() != plain).any()


def test_a_nudged_chdtrc_moves_only_the_kruskal_wallis_p(monkeypatch):
    # equally spread samples: Levene's gate passes them to the location
    # tests, so Kruskal-Wallis runs
    x, y = [0.0, 1.0], [2.0, 3.0]
    plain = ranktests.select_and_run(x, y)
    assert plain.selected == ("mann_whitney_u", "kruskal_wallis")
    monkeypatch.setattr(scipy.special, "chdtrc",
                        _next_up(scipy.special.chdtrc))
    nudged = ranktests.select_and_run(x, y)
    assert nudged.kruskal_wallis.p != plain.kruskal_wallis.p
    assert nudged._replace(kruskal_wallis=plain.kruskal_wallis) == plain


def test_a_nudged_fdtrc_moves_only_the_levene_ps(monkeypatch):
    # three values per sample, spread about their centres: both Levene
    # tests read their p from the F tail
    x, y = [0.0, 1.0, 3.0], [2.0, 3.0, 7.0]
    plain = ranktests.select_and_run(x, y)
    monkeypatch.setattr(scipy.special, "fdtrc",
                        _next_up(scipy.special.fdtrc))
    nudged = ranktests.select_and_run(x, y)
    assert nudged.levene.p != plain.levene.p
    assert nudged.brown_forsythe.p != plain.brown_forsythe.p
    assert nudged._replace(levene=plain.levene,
                           brown_forsythe=plain.brown_forsythe) == plain

