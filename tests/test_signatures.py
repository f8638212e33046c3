"""Every numerical check has one fixed bound and every size guard one fixed
value: no public entry takes a tolerance a caller could loosen, nor a
max_n that lifts a guard.  The one exception is
LatticeField.support_box(tol=), which picks which entries count as support
rather than bounding a check."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import ccr_lab

ALLOWED = {("LatticeField.support_box", "tol")}


def _is_override(name):
    return name in ("tol", "max_n") or name.endswith("_tol") or name.startswith("tol_")


def _public_callables():
    for info in pkgutil.iter_modules(ccr_lab.__path__):
        module = importlib.import_module(f"ccr_lab.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isclass(obj):
                yield name, obj
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    if isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    if inspect.isfunction(member):
                        yield f"{name}.{attr}", member
            elif callable(obj):
                yield name, obj


def test_public_signatures_take_no_tolerance():
    seen = dict(_public_callables())
    assert "validate_mu_tau" in seen and "TwoPointKernel" in seen
    params = {
        (where, param)
        for where, obj in seen.items()
        for param in inspect.signature(obj).parameters
    }
    assert ALLOWED <= params
    assert sorted(p for p in params - ALLOWED if _is_override(p[1])) == []
