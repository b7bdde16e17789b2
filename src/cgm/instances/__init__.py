"""Built-in instances and the named registry the CLI selects from."""

from __future__ import annotations

from collections.abc import Callable

from ..core import InstanceBundle
from ..errors import ConfigError
from ..indexcat import IndexCategory
from ..values import vint
from .ahl import AhlMonad, ahl_instance, broken_ahl_instance, sat_add
from .lockstate import LockPrims, concst_bundle, concst_instance, lock_category, run_table
from .simple import (
    broken_graded_list_instance,
    graded_list_graded_monad,
    graded_list_instance,
    identity_instance,
    list_monad,
    list_sort_homomorphism,
    sorted_list_instance,
)
from .typedstate import (
    constructive_param,
    tstate_read,
    tstate_store,
    typed_state_param,
)

__all__ = [
    "AhlMonad", "InstanceBundle", "LockPrims", "ahl_instance",
    "broken_ahl_instance", "broken_graded_list_instance", "build_instance",
    "concst_bundle", "concst_instance", "constructive_param",
    "graded_list_graded_monad", "graded_list_instance", "identity_instance",
    "instance_names", "list_monad", "list_sort_homomorphism", "lock_category",
    "run_table", "sat_add", "sorted_list_instance", "tstate_read", "tstate_store",
    "typed_state_param",
]


def _build_identity() -> InstanceBundle:
    return InstanceBundle("identity", identity_instance(lock_category()))


def _build_glist() -> InstanceBundle:
    return InstanceBundle("glist", graded_list_instance())


def _build_broken_glist() -> InstanceBundle:
    return InstanceBundle("broken-glist", broken_graded_list_instance())


def _build_tstate() -> InstanceBundle:
    P = typed_state_param({"A": 2, "B": 2})
    monad, gu = constructive_param(P)
    return InstanceBundle("tstate", monad, genunit=gu)


def _build_ahl() -> InstanceBundle:
    inst = ahl_instance()
    return InstanceBundle("ahl", inst.monad, genunit=inst.genunit)


def _build_broken_ahl() -> InstanceBundle:
    inst = broken_ahl_instance()
    return InstanceBundle("broken-ahl", inst.monad, genunit=inst.genunit)


_BUILDERS: dict[str, Callable[[], InstanceBundle]] = {
    "identity": _build_identity,
    "glist": _build_glist,
    "broken-glist": _build_broken_glist,
    "concst": concst_bundle,
    "tstate": _build_tstate,
    "ahl": _build_ahl,
    "broken-ahl": _build_broken_ahl,
}


def instance_names() -> tuple[str, ...]:
    return tuple(_BUILDERS)


def build_instance(name: str, store: tuple[int, int] | None = None,
                   category: IndexCategory | None = None) -> InstanceBundle:
    """The named instance; a `.gp` store header's range (lo, hi) sets concst's
    store domain to the integers lo..hi, and no other instance takes one; a
    category (from `laws --category`) indexes the identity instance only."""
    if category is not None:
        if name != "identity":
            raise ConfigError("--category only applies to the identity instance")
        return InstanceBundle("identity", identity_instance(category))
    if store is not None:
        if name != "concst":
            raise ConfigError(f"a store header applies only to instance concst, not {name}")
        return concst_bundle(tuple(vint(n) for n in range(store[0], store[1] + 1)))
    if name not in _BUILDERS:
        raise ConfigError(f"unknown instance {name!r}; known: {', '.join(_BUILDERS)}")
    return _BUILDERS[name]()
