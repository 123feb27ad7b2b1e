"""Command line entry points for world generation, experiments, and linting."""

from __future__ import annotations

import math
import sys
from dataclasses import replace

import click

from . import __version__, output
from .backends import CachingBackend, Predicate, Query, RemoteEndpointConfig
from .errors import (
    BackendError,
    ConfigError,
    DatagraphError,
    GraphValidationError,
    TraversalAbortedError,
)
from .graph import Datagraph
from .harness import (
    TASK_KINDS,
    BackendConfig,
    ExperimentConfig,
    WorldFiles,
    build_base_backend,
    load_world_files,
    run_aggregate,
    run_compare,
    run_route_scan,
)
from .worldgen import WorldSpec, generate_world

EXIT_BAD_INPUT = 2
EXIT_BACKEND_FAILURE = 3


class _Main(click.Group):
    """The command group; every command's errors end here as one stderr line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except TraversalAbortedError as exc:
            _fail(str(exc.__cause__ or exc), EXIT_BACKEND_FAILURE)
        except BackendError as exc:
            _fail(str(exc), EXIT_BACKEND_FAILURE)
        except DatagraphError as exc:
            _fail(str(exc), EXIT_BAD_INPUT)
        except click.UsageError as exc:
            _fail(exc.format_message(), EXIT_BAD_INPUT)


def _fail(message: str, code: int):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@click.group(cls=_Main)
@click.version_option(version=__version__, prog_name="datagraph")  # a source checkout has no installed metadata
def main():
    """Spatial datagraph experiments: generate worlds, compare search
    strategies, scan routes, aggregate counts.

    \b
    Exit codes:
      0  success
      1  compare: some trial errored; validate: the world has violations
      2  bad input: config, spec, world or store file, node id, route, option,
         an output that cannot be written
      3  backend failure: replay miss, remote timeout, status or body
    """


@main.command()
@click.option("--spec", "spec_path", type=click.Path(exists=True),
              help="World spec JSON file, else a 6x6 spec's defaults; the flags below override its fields.")
@click.option("--grid-w", type=int, default=None)
@click.option("--grid-h", type=int, default=None)
@click.option("--room-size", "room_size_m", type=float, default=None)
@click.option("--door-prob", type=float, default=None)
@click.option("--objects-mean", "objects_per_room_mean", type=float, default=None)
@click.option("--dup-prob", "boundary_duplicate_prob", type=float, default=None,
              help="Probability of duplicating a near-wall object into the neighbor scene.")
@click.option("--seed", type=int, default=None)
@click.argument("out_dir", type=click.Path())
def gen(spec_path, out_dir, **flags):
    """Generate a seeded world into OUT_DIR (world, ground truth, spec)."""
    spec = WorldSpec.load(spec_path) if spec_path else WorldSpec(6, 6)
    spec = replace(spec, **{name: value for name, value in flags.items() if value is not None})
    graph, ground_truth = generate_world(spec)
    out = output.make_output_dir(out_dir)
    graph.save(out / "world.json")
    ground_truth.save(out / "ground_truth.json")
    spec.save(out / "worldspec.json")
    click.echo(
        f"wrote {out / 'world.json'} ({len(graph)} nodes, {graph.edge_count} edges, "
        f"{len(ground_truth.instances)} object records)"
    )


def _load_config(config_path, output_dir, count, seed, kind, strategies, cache, formats,
                 backend=None, store_path=None, record_path=None) -> ExperimentConfig:
    """The config file with the ``_compare_options`` flags that were given applied."""
    if config_path is None:
        raise ConfigError("no experiment config; pass --config FILE")
    overrides = {
        "tasks": {"count": count, "seed": seed, "kind": kind},
        "backend": {"kind": backend, "store_path": store_path, "record_path": record_path},
        "strategies": _split_list(strategies),
        "cache_enabled": cache,
        "report_formats": _split_list(formats),
        "output_dir": output_dir,
    }
    return ExperimentConfig.load(config_path, overrides)


def _split_list(flag: str | None) -> list[str] | None:
    return None if flag is None else [item.strip() for item in flag.split(",") if item.strip()]


_compare_options = [
    click.option("--config", "config_path", type=click.Path(exists=True),
                 help="Experiment config JSON; flags override its fields."),
    click.option("--output-dir", "-o", type=click.Path(), default=None),
    click.option("--count", type=int, default=None, help="Number of seeded tasks."),
    click.option("--seed", type=int, default=None, help="Master task seed."),
    click.option("--kind", type=click.Choice(TASK_KINDS), default=None),
    click.option("--strategies", default=None, help="Comma list: proximity,brute_force."),
    click.option("--cache/--no-cache", "cache", default=None,
                 help="Set cache_enabled; a cache is built only if the config also sets shared_cache."),
    click.option("--formats", default=None, help="Comma list: json,csv."),
]
_backend_kind = click.option("--backend", type=click.Choice(["oracle", "replay", "remote"]), default=None)


def _apply_options(options):
    def wrap(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn
    return wrap


def _run_and_summarize(config: ExperimentConfig) -> None:
    """Run, print the summary, and exit 1 if any trial errored."""
    report = run_compare(config)
    for strategy, stats in report.summary.items():
        click.echo(
            f"{strategy}: trials={stats['trials']} errors={stats['errors']} "
            f"mean_calls={stats['mean_backend_calls']} closest_rate={stats['closest_rate']}"
        )
    if config.backend.record_path:
        click.echo(f"recorded session -> {config.backend.record_path}")
    if report.error_count:
        click.echo(f"{report.error_count} trial run(s) errored", err=True)
        sys.exit(1)


@main.command()
@_apply_options(_compare_options)
@_backend_kind
def compare(**flags):
    """Compare brute-force vs proximity search over seeded tasks."""
    _run_and_summarize(_load_config(**flags))


@main.command("replay-record")
@click.option("--store", "store_path", type=click.Path(), required=True,
              help="Where to write the recorded session.")
@_apply_options(_compare_options)
@_backend_kind
def replay_record(store_path, **flags):
    """Run an experiment while recording every backend answer."""
    _run_and_summarize(_load_config(**flags, record_path=store_path))


@main.command("replay-run")
@click.option("--store", "store_path", type=click.Path(exists=True), required=True,
              help="Recorded session to replay.")
@_apply_options(_compare_options)
def replay_run(store_path, **flags):
    """Re-run an experiment hermetically from a recorded session."""
    _run_and_summarize(_load_config(**flags, backend="replay", store_path=store_path))


_backend_options = [
    click.option("--store", type=click.Path(exists=True), default=None, help="Replay this recorded session."),
    click.option("--base-url", default=None, help="Query the remote endpoint at this URL."),
    click.option("--timeout-ms", type=click.IntRange(min=1), default=None),
    click.option("--auth-token", default=None),
]


def _backend_config(store, base_url, **remote) -> BackendConfig:
    """A replay of --store, the endpoint at --base-url, or else the oracle."""
    remote = {name: value for name, value in remote.items() if value is not None}
    if base_url is None:
        if remote:
            raise click.UsageError("--timeout-ms and --auth-token need --base-url")
        return BackendConfig("replay", store) if store else BackendConfig()
    if store is not None:
        raise click.UsageError("--store and --base-url name two backends; pass one")
    try:
        return BackendConfig("remote", remote=RemoteEndpointConfig(base_url, **remote))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _read_routes(path) -> list[list[int]]:
    routes = output.read_document(path, ConfigError)
    if not isinstance(routes, list) or not all(isinstance(r, list) and r for r in routes):
        raise ConfigError(f"routes file {path}: expected an array of non-empty node id arrays")
    return routes


@main.command()
@click.option("--world", "world_path", type=click.Path(exists=True), required=True)
@click.option("--start", type=int, required=True)
@click.option("--goal", type=int, required=True)
@click.option("--metric", type=click.Choice(["hops", "meters"]), default="hops", show_default=True)
@click.option("--routes", "routes_path", type=click.Path(exists=True), default=None,
              help="JSON array of candidate routes (arrays of node ids).")
@_apply_options(_backend_options)
@click.option("--cache/--no-cache", default=True, show_default=True)
@click.option("--output", "output_path", type=click.Path(), default=None,
              help="Write the scan report JSON here.")
def route(world_path, start, goal, metric, routes_path, cache, output_path, **backend_flags):
    """Scan route(s) between START and GOAL for hazards; pick the safest."""
    config = _backend_config(**backend_flags)
    graph = Datagraph.load(world_path)
    candidates = _read_routes(routes_path) if routes_path else None
    query_backend = build_base_backend(config)
    if cache:
        query_backend = CachingBackend(query_backend)
    report = run_route_scan(graph, query_backend, start, goal, metric, candidates)
    if output_path:
        output.write_output(output_path, [report.to_json()])
    for entry in report.entries:
        click.echo(
            f"route {list(entry.route)}: hazards={entry.hazard_count} "
            f"({list(entry.hazard_nodes)}) length={entry.length_hops} hops / {entry.length_m:.2f} m"
        )
    click.echo(f"selected route: {list(report.selected_route)}")


def _finite(ctx, param, value: float) -> float:
    """Refuse NaN and infinity, which ``click.FloatRange`` lets through."""
    if not math.isfinite(value):
        raise click.BadParameter(f"{value} is not a finite number")
    return value


@main.command()
@click.option("--world", "world_path", type=click.Path(exists=True), required=True)
@click.option("--ground-truth", "gt_path", type=click.Path(exists=True), default=None)
@click.option("--label", required=True, help="Object label to count.")
@click.option("--attr", "attrs", multiple=True, help="Extra key=value attribute clauses.")
@click.option("--radius", type=click.FloatRange(min=0), callback=_finite, default=0.5, show_default=True,
              help="Dedup radius in meters; 0 disables merging.")
@_apply_options(_backend_options)
@click.option("--output", "output_path", type=click.Path(), default=None)
def aggregate(world_path, gt_path, label, attrs, radius, output_path, **backend_flags):
    """Count instances of LABEL across all scenes, merging boundary duplicates."""
    config = _backend_config(**backend_flags)
    clauses = []
    for raw in attrs:
        if "=" not in raw:
            raise click.UsageError(f"--attr needs key=value, got {raw!r}")
        key, value = raw.split("=", 1)
        clauses.append((key, value))
    try:
        predicate = Predicate(label_equals=label, attribute_equals=tuple(clauses))
    except ValueError as exc:
        raise click.UsageError(f"--label: {exc}") from None
    query = Query(text=f"how many {label} are there?", predicate=predicate, mode="count")
    graph, ground_truth = load_world_files(WorldFiles(world_path, gt_path))
    query_backend = build_base_backend(config)
    report = run_aggregate(graph, query_backend, query, radius, ground_truth)
    if output_path:
        output.write_output(output_path, [report.to_json()])
    click.echo(f"raw_total={report.aggregate.raw_total} deduped_total={report.aggregate.deduped_total}")
    if report.true_count is not None:
        click.echo(f"true_count={report.true_count} count_error={report.count_error}")


@main.command()
@click.argument("world_path", type=click.Path(exists=True))
def validate(world_path):
    """Lint a saved world document; exit 1 on violations, 2 if it does not parse."""
    try:
        graph = Datagraph.load(world_path)
    except GraphValidationError as exc:
        for violation in exc.violations:
            click.echo(str(violation), err=True)
        sys.exit(1)
    click.echo(f"ok: {len(graph)} nodes, {graph.edge_count} edges, 0 violations")


if __name__ == "__main__":
    main()
