"""`Record`, the base of every immutable record in the lab.

A record is a tuple with named fields, declared as a class body of
annotated names with trailing defaults:

    class LinkSpec(Record):
        rate_schedule: tuple[tuple[int, int], ...]
        mtu_bytes: int = 1500

It behaves as a `typing.NamedTuple` of the same body does: built from
positional or keyword arguments, read by field name or index, compared
and hashed as a tuple, varied with `_replace`, and never assigned. The
difference is the cost of defining one. `NamedTuple` compiles every
string annotation into a `ForwardRef` and `eval`s a generated `__new__`
for each class; the metaclass here reads the annotation names only and
compiles nothing, and `Record` itself supplies `__new__`, `_replace`,
`_asdict`, `__repr__` and `__getnewargs__` for every record.
"""

from __future__ import annotations

from collections import _tuplegetter

_new = tuple.__new__


class _RecordType(type):
    """Turns a record's annotated names into its fields: `_fields` in
    annotation order, `_field_defaults`, one C accessor per field (the
    one `collections.namedtuple` installs) and empty `__slots__`."""

    def __new__(mcs, name, bases, ns):
        fields = tuple(ns.get("__annotations__", ()))
        defaults = {}
        for field in fields:
            if field in ns:
                defaults[field] = ns[field]
            elif defaults:
                raise TypeError(
                    f"{name}: required field {field!r} follows a field with a default"
                )
        ns.update({field: _tuplegetter(i, None) for i, field in enumerate(fields)})
        ns.update(__slots__=(), _fields=fields, _field_defaults=defaults)
        return super().__new__(mcs, name, bases, ns)


class Record(tuple, metaclass=_RecordType):
    """A tuple with named fields; see the module docstring."""

    def __new__(cls, *args, **kwargs):
        fields = cls._fields
        if not kwargs and len(args) == len(fields):
            return _new(cls, args)
        # Positional, then keyword arguments, then defaults, refused as a
        # function with the fields as its parameters would refuse them.
        if len(args) > len(fields):
            raise TypeError(
                f"{cls.__name__}() takes {len(fields)} positional arguments but {len(args)} were given"
            )
        values = list(args)
        defaults = cls._field_defaults
        for field in fields[len(args):]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in defaults:
                values.append(defaults[field])
            else:
                raise TypeError(f"{cls.__name__}() missing required argument: {field!r}")
        for key in kwargs:
            if key in fields:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {key!r}")
            raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {key!r}")
        return _new(cls, values)

    def _replace(self, /, **changes):
        """A new record with the named fields changed."""
        record = _new(type(self), map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"{type(self).__name__} has no fields {list(changes)!r}")
        return record

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self))

    def __repr__(self) -> str:
        body = ", ".join(f"{field}={value!r}" for field, value in zip(self._fields, self))
        return f"{type(self).__name__}({body})"

    def __getnewargs__(self) -> tuple:
        return tuple(self)
