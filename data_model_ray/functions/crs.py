"""Multi-encoding CRS model — proj:code / proj:wkt2 / proj:projjson.

Re-derives the reference's Proj convention semantics
(/root/reference/src/eopf_geozarr/data_api/geozarr/geoproj.py:20-37): a CRS
attribute object carries up to three encodings and is valid iff AT LEAST ONE
of ``proj:code``, ``proj:wkt2``, ``proj:projjson`` is present. The reference
validates projjson against pydantic models of the PROJ JSON v0.7 schema
(/root/reference/src/eopf_geozarr/data_api/geozarr/projjson.py:1-690,
tests/test_data_api/test_projjson.py); here the analogue is a from-scratch
structural validator (`validate_projjson`) over plain dicts — no pydantic,
no proj library, public schema semantics only
(https://proj.org/schemas/v0.7/projjson.schema.json).

Generators cover the CRSs this engine actually emits: EPSG:4326 (geographic),
EPSG:3857 (Web Mercator) and EPSG:326xx (WGS84 / UTM northern zones) — the
same family the reference's Sentinel-2 products carry.
"""

from __future__ import annotations

from typing import Any

# --- encoding generators ----------------------------------------------------

_WGS84_DATUM_WKT = (
    'ENSEMBLE["World Geodetic System 1984 ensemble",'
    'MEMBER["World Geodetic System 1984 (G2296)"],'
    'ELLIPSOID["WGS 84",6378137,298.257223563,LENGTHUNIT["metre",1]],'
    "ENSEMBLEACCURACY[2.0]]"
)

_WGS84_DATUM_JSON: dict[str, Any] = {
    "type": "DatumEnsemble",
    "name": "World Geodetic System 1984 ensemble",
    "members": [{"name": "World Geodetic System 1984 (G2296)"}],
    "ellipsoid": {
        "name": "WGS 84",
        "semi_major_axis": 6378137,
        "inverse_flattening": 298.257223563,
    },
    "accuracy": "2.0",
}


def wkt2_for(code: str) -> str:
    """WKT2:2019 string for a supported EPSG code (from-scratch emitter)."""
    epsg = _parse_epsg(code)
    if epsg == 4326:
        return (
            'GEOGCRS["WGS 84",' + _WGS84_DATUM_WKT + ","
            'CS[ellipsoidal,2],'
            'AXIS["geodetic latitude (Lat)",north,ANGLEUNIT["degree",0.0174532925199433]],'
            'AXIS["geodetic longitude (Lon)",east,ANGLEUNIT["degree",0.0174532925199433]],'
            'ID["EPSG",4326]]'
        )
    if epsg == 3857:
        return (
            'PROJCRS["WGS 84 / Pseudo-Mercator",'
            'BASEGEOGCRS["WGS 84",' + _WGS84_DATUM_WKT + "],"
            'CONVERSION["Popular Visualisation Pseudo-Mercator",'
            'METHOD["Popular Visualisation Pseudo Mercator",ID["EPSG",1024]],'
            'PARAMETER["Latitude of natural origin",0,ANGLEUNIT["degree",0.0174532925199433]],'
            'PARAMETER["Longitude of natural origin",0,ANGLEUNIT["degree",0.0174532925199433]],'
            'PARAMETER["False easting",0,LENGTHUNIT["metre",1]],'
            'PARAMETER["False northing",0,LENGTHUNIT["metre",1]]],'
            'CS[Cartesian,2],'
            'AXIS["easting (X)",east,LENGTHUNIT["metre",1]],'
            'AXIS["northing (Y)",north,LENGTHUNIT["metre",1]],'
            'ID["EPSG",3857]]'
        )
    if 32601 <= epsg <= 32660:
        zone = epsg - 32600
        lon0 = zone * 6 - 183
        return (
            f'PROJCRS["WGS 84 / UTM zone {zone}N",'
            'BASEGEOGCRS["WGS 84",' + _WGS84_DATUM_WKT + "],"
            f'CONVERSION["UTM zone {zone}N",'
            'METHOD["Transverse Mercator",ID["EPSG",9807]],'
            'PARAMETER["Latitude of natural origin",0,ANGLEUNIT["degree",0.0174532925199433]],'
            f'PARAMETER["Longitude of natural origin",{lon0},ANGLEUNIT["degree",0.0174532925199433]],'
            'PARAMETER["Scale factor at natural origin",0.9996,SCALEUNIT["unity",1]],'
            'PARAMETER["False easting",500000,LENGTHUNIT["metre",1]],'
            'PARAMETER["False northing",0,LENGTHUNIT["metre",1]]],'
            'CS[Cartesian,2],'
            'AXIS["easting (E)",east,LENGTHUNIT["metre",1]],'
            'AXIS["northing (N)",north,LENGTHUNIT["metre",1]],'
            f'ID["EPSG",{epsg}]]'
        )
    raise ValueError(f"no WKT2 emitter for EPSG:{epsg}")


def projjson_for(code: str) -> dict[str, Any]:
    """Minimal PROJ JSON v0.7 dict for a supported EPSG code."""
    epsg = _parse_epsg(code)
    schema = "https://proj.org/schemas/v0.7/projjson.schema.json"
    deg = {"type": "AngularUnit", "name": "degree", "conversion_factor": 0.0174532925199433}
    metre = {"type": "LinearUnit", "name": "metre", "conversion_factor": 1}
    base_geog = {
        "type": "GeographicCRS",
        "name": "WGS 84",
        "datum_ensemble": _WGS84_DATUM_JSON,
        "coordinate_system": {
            "type": "CoordinateSystem",
            "subtype": "ellipsoidal",
            "axis": [
                {"type": "Axis", "name": "Geodetic latitude", "abbreviation": "Lat", "direction": "north", "unit": deg},
                {"type": "Axis", "name": "Geodetic longitude", "abbreviation": "Lon", "direction": "east", "unit": deg},
            ],
        },
    }
    if epsg == 4326:
        return {
            "$schema": schema,
            **base_geog,
            "id": {"authority": "EPSG", "code": 4326},
        }
    cart = {
        "type": "CoordinateSystem",
        "subtype": "Cartesian",
        "axis": [
            {"type": "Axis", "name": "Easting", "abbreviation": "E", "direction": "east", "unit": metre},
            {"type": "Axis", "name": "Northing", "abbreviation": "N", "direction": "north", "unit": metre},
        ],
    }
    if epsg == 3857:
        return {
            "$schema": schema,
            "type": "ProjectedCRS",
            "name": "WGS 84 / Pseudo-Mercator",
            "base_crs": base_geog,
            "conversion": {
                "type": "Conversion",
                "name": "Popular Visualisation Pseudo-Mercator",
                "method": {"type": "Method", "name": "Popular Visualisation Pseudo Mercator", "id": {"authority": "EPSG", "code": 1024}},
                "parameters": [
                    {"type": "ParameterValue", "name": "Latitude of natural origin", "value": 0, "unit": deg},
                    {"type": "ParameterValue", "name": "Longitude of natural origin", "value": 0, "unit": deg},
                    {"type": "ParameterValue", "name": "False easting", "value": 0, "unit": metre},
                    {"type": "ParameterValue", "name": "False northing", "value": 0, "unit": metre},
                ],
            },
            "coordinate_system": cart,
            "id": {"authority": "EPSG", "code": 3857},
        }
    if 32601 <= epsg <= 32660:
        zone = epsg - 32600
        return {
            "$schema": schema,
            "type": "ProjectedCRS",
            "name": f"WGS 84 / UTM zone {zone}N",
            "base_crs": base_geog,
            "conversion": {
                "type": "Conversion",
                "name": f"UTM zone {zone}N",
                "method": {"type": "Method", "name": "Transverse Mercator", "id": {"authority": "EPSG", "code": 9807}},
                "parameters": [
                    {"type": "ParameterValue", "name": "Latitude of natural origin", "value": 0, "unit": deg},
                    {"type": "ParameterValue", "name": "Longitude of natural origin", "value": zone * 6 - 183, "unit": deg},
                    {"type": "ParameterValue", "name": "Scale factor at natural origin", "value": 0.9996, "unit": {"type": "ScaleUnit", "name": "unity", "conversion_factor": 1}},
                    {"type": "ParameterValue", "name": "False easting", "value": 500000, "unit": metre},
                    {"type": "ParameterValue", "name": "False northing", "value": 0, "unit": metre},
                ],
            },
            "coordinate_system": cart,
            "id": {"authority": "EPSG", "code": epsg},
        }
    raise ValueError(f"no PROJJSON emitter for EPSG:{epsg}")


def proj_encodings(code: str) -> dict[str, Any]:
    """All three encodings for a code — the manifest's `proj` attr object."""
    return {
        "proj:code": f"EPSG:{_parse_epsg(code)}",
        "proj:wkt2": wkt2_for(code),
        "proj:projjson": projjson_for(code),
    }


def _parse_epsg(code: str | int) -> int:
    if isinstance(code, int):
        return code
    return int(str(code).upper().replace("EPSG:", ""))


# --- validation -------------------------------------------------------------


def validate_proj_attrs(attrs: dict[str, Any]) -> list[str]:
    """`Proj` model analogue (geoproj.py:27-34): at least one encoding must
    be present; each present encoding must be well-formed. Returns problems
    (empty == valid)."""
    problems: list[str] = []
    code = attrs.get("proj:code")
    wkt2 = attrs.get("proj:wkt2")
    pj = attrs.get("proj:projjson")
    if not any([code, wkt2, pj]):
        return [
            "at least one of proj:code, proj:wkt2, or proj:projjson must be provided"
        ]
    if code is not None:
        s = str(code).upper()
        if not (s.startswith("EPSG:") and s[5:].isdigit()):
            problems.append(f"proj:code {code!r} is not an AUTHORITY:CODE string")
    if wkt2 is not None:
        problems += _validate_wkt2(str(wkt2))
    if pj is not None:
        problems += validate_projjson(pj)
    return problems


def _validate_wkt2(wkt: str) -> list[str]:
    problems = []
    head = wkt.lstrip()[:12].upper()
    if not any(
        head.startswith(k)
        for k in ("GEOGCRS", "PROJCRS", "GEODCRS", "VERTCRS", "COMPOUNDCRS", "ENGCRS")
    ):
        problems.append("proj:wkt2 does not start with a WKT2 CRS keyword")
    if wkt.count("[") != wkt.count("]"):
        problems.append("proj:wkt2 has unbalanced brackets")
    return problems


#: CRS object types (the reference's `CRS` union, projjson.py:596-611)
_CRS_TYPES = {
    "GeographicCRS",
    "GeodeticCRS",
    "ProjectedCRS",
    "VerticalCRS",
    "CompoundCRS",
    "TemporalCRS",
    "EngineeringCRS",
    "ParametricCRS",
    "DerivedGeodeticCRS",
    "DerivedProjectedCRS",
    "DerivedVerticalCRS",
    "DerivedTemporalCRS",
    "DerivedParametricCRS",
    "DerivedEngineeringCRS",
    "BoundCRS",
}

#: datum object types (the reference's `Datum` union, projjson.py:340-349)
_DATUM_TYPES = {
    "GeodeticReferenceFrame",
    "DynamicGeodeticReferenceFrame",
    "VerticalReferenceFrame",
    "DynamicVerticalReferenceFrame",
    "TemporalDatum",
    "ParametricDatum",
    "EngineeringDatum",
}

#: standalone non-CRS document types the top-level `ProjJSON` union accepts
#: (projjson.py:660-669): datums, ensembles, primitives and operations
_STANDALONE_TYPES = _DATUM_TYPES | {
    "DatumEnsemble",
    "Ellipsoid",
    "PrimeMeridian",
    "Transformation",
    "Conversion",
    "ConcatenatedOperation",
    "CoordinateMetadata",
    "PointMotionOperation",
}

_UNIT_TYPES = {
    "Unit", "AngularUnit", "LinearUnit", "ScaleUnit", "ParametricUnit",
    "TimeUnit",
}

_CS_SUBTYPES = {
    "Cartesian", "spherical", "ellipsoidal", "vertical", "ordinal",
    "parametric", "affine", "TemporalDateTime", "TemporalCount",
    "TemporalMeasure",
}

_AXIS_DIRECTIONS = {
    "north", "northNorthEast", "northEast", "eastNorthEast", "east",
    "eastSouthEast", "southEast", "southSouthEast", "south", "southSouthWest",
    "southWest", "westSouthWest", "west", "westNorthWest", "northWest",
    "northNorthWest", "up", "down", "geocentricX", "geocentricY",
    "geocentricZ", "columnPositive", "columnNegative", "rowPositive",
    "rowNegative", "displayRight", "displayLeft", "displayUp", "displayDown",
    "forward", "aft", "port", "starboard", "clockwise", "counterClockwise",
    "towards", "awayFrom", "future", "past", "unspecified",
}


def validate_projjson(d: Any, path: str = "projjson") -> list[str]:
    """Structural PROJ JSON v0.7 check over plain dicts.

    Behavioral analogue of the reference's full typed model tree
    (projjson.py:1-690: Id/Unit/Axis/CoordinateSystem/Ellipsoid/
    PrimeMeridian/reference frames/DatumEnsemble/Conversion/the CRS union/
    BoundCRS/CompoundCRS/operations), exercised against the in-repo
    fixture set of PROJ-layout EPSG documents (tests/data/projjson/). Accepts
    every document shape the top-level ``ProjJSON`` union accepts — CRSs,
    standalone datums/ensembles/primitives, and operations — and recurses
    through every typed sub-object. Returns problems (empty == valid).
    """
    problems: list[str] = []
    if not isinstance(d, dict):
        return [f"{path}: not an object"]
    t = d.get("type")
    if t in _CRS_TYPES:
        return _check_crs(d, path)
    if t in _DATUM_TYPES:
        return _check_datum(d, path)
    if t == "DatumEnsemble":
        return _check_datum_ensemble(d, path)
    if t == "Ellipsoid":
        return _check_ellipsoid(d, path)
    if t == "PrimeMeridian":
        return _check_prime_meridian(d, path)
    if t in ("Transformation", "Conversion"):
        return _check_single_operation(d, path)
    if t == "ConcatenatedOperation":
        problems += _require_name(d, path) + _check_id_fields(d, path)
        for side in ("source_crs", "target_crs"):
            if side not in d:
                problems.append(f"{path}: ConcatenatedOperation missing {side}")
            else:
                problems += _check_crs(d[side], f"{path}.{side}")
        steps = d.get("steps")
        if not isinstance(steps, list) or not steps:
            problems.append(f"{path}: ConcatenatedOperation missing steps")
        else:
            for i, s in enumerate(steps):
                problems += _check_single_operation(s, f"{path}.steps[{i}]")
        return problems
    if t == "CoordinateMetadata":
        if "crs" not in d:
            return [f"{path}: CoordinateMetadata missing crs"]
        return _check_crs(d["crs"], f"{path}.crs")
    if t == "PointMotionOperation":
        problems += _require_name(d, path) + _check_id_fields(d, path)
        if "source_crs" not in d:
            problems.append(f"{path}: PointMotionOperation missing source_crs")
        else:
            problems += _check_crs(d["source_crs"], f"{path}.source_crs")
        problems += _check_method(d.get("method"), f"{path}.method")
        problems += _check_parameters(d.get("parameters"), path, required=True)
        return problems
    return [f"{path}: unknown or missing type {t!r}"]


def _require_name(d: dict, path: str) -> list[str]:
    return [] if d.get("name") else [f"{path}: missing name"]


def _check_crs(d: Any, path: str) -> list[str]:
    if not isinstance(d, dict):
        return [f"{path}: not an object"]
    t = d.get("type")
    if t not in _CRS_TYPES:
        return [f"{path}: unknown or missing CRS type {t!r}"]
    problems: list[str] = []
    problems += _check_id_fields(d, path)

    if t == "BoundCRS":
        # BoundCRS has no name field of its own (projjson.py:579-596)
        for side in ("source_crs", "target_crs"):
            if side not in d:
                problems.append(f"{path}: BoundCRS missing {side}")
            else:
                problems += _check_crs(d[side], f"{path}.{side}")
        tr = d.get("transformation")
        if not isinstance(tr, dict):
            problems.append(f"{path}: BoundCRS missing transformation")
        else:
            tp = f"{path}.transformation"
            problems += _require_name(tr, tp) + _check_id_fields(tr, tp)
            problems += _check_method(tr.get("method"), f"{tp}.method")
            problems += _check_parameters(tr.get("parameters"), tp, required=True)
        return problems

    problems += _require_name(d, path)
    if t == "CompoundCRS":
        comps = d.get("components")
        if not isinstance(comps, list) or not comps:
            problems.append(f"{path}: CompoundCRS missing components")
        else:
            for i, c in enumerate(comps):
                problems += _check_crs(c, f"{path}.components[{i}]")
    elif t in ("GeographicCRS", "GeodeticCRS"):
        has_datum = "datum" in d
        has_ens = "datum_ensemble" in d
        if has_datum == has_ens:
            problems.append(
                f"{path}: geodetic CRS needs exactly one of datum / datum_ensemble"
            )
        if has_datum:
            problems += _check_datum(d["datum"], f"{path}.datum")
        if has_ens:
            problems += _check_datum_ensemble(
                d["datum_ensemble"], f"{path}.datum_ensemble"
            )
    elif t in ("VerticalCRS", "ParametricCRS", "EngineeringCRS", "TemporalCRS"):
        if "datum" in d:
            problems += _check_datum(d["datum"], f"{path}.datum")
        elif "datum_ensemble" in d:
            problems += _check_datum_ensemble(
                d["datum_ensemble"], f"{path}.datum_ensemble"
            )
        elif t == "TemporalCRS":
            problems.append(f"{path}: TemporalCRS missing datum")
    elif t == "ProjectedCRS" or t.startswith("Derived"):
        if "base_crs" not in d:
            problems.append(f"{path}: {t} missing base_crs")
        else:
            problems += _check_crs(d["base_crs"], f"{path}.base_crs")
        conv = d.get("conversion")
        if not isinstance(conv, dict):
            problems.append(f"{path}: {t} missing conversion")
        else:
            cp = f"{path}.conversion"
            problems += _require_name(conv, cp) + _check_id_fields(conv, cp)
            problems += _check_method(conv.get("method"), f"{cp}.method")
            problems += _check_parameters(conv.get("parameters"), cp, required=False)
    # coordinate_system is optional on every CRS (reference models:
    # CoordinateSystem | None); validated only when present
    if "coordinate_system" in d:
        problems += _check_cs(d["coordinate_system"], f"{path}.coordinate_system")
    return problems


def _check_single_operation(d: Any, path: str) -> list[str]:
    if not isinstance(d, dict):
        return [f"{path}: not an object"]
    problems = _require_name(d, path) + _check_id_fields(d, path)
    problems += _check_method(d.get("method"), f"{path}.method")
    for side in ("source_crs", "target_crs"):
        if side in d:
            problems += _check_crs(d[side], f"{path}.{side}")
    problems += _check_parameters(d.get("parameters"), path, required=False)
    return problems


def _check_method(m: Any, path: str) -> list[str]:
    if not isinstance(m, dict) or not m.get("name"):
        return [f"{path}: missing method name"]
    return _check_id_fields(m, path)


def _check_parameters(params: Any, path: str, *, required: bool) -> list[str]:
    if params is None:
        return [f"{path}: missing parameters"] if required else []
    if not isinstance(params, list):
        return [f"{path}.parameters: not a list"]
    problems = []
    for i, p in enumerate(params):
        pp = f"{path}.parameters[{i}]"
        if not isinstance(p, dict) or "name" not in p or "value" not in p:
            problems.append(f"{pp}: needs name+value")
            continue
        if "unit" in p and p["unit"] is not None:
            problems += _check_unit(p["unit"], f"{pp}.unit")
    return problems


def _check_datum(d: Any, path: str) -> list[str]:
    if not isinstance(d, dict):
        return [f"{path}: not an object"]
    t = d.get("type")
    if t not in _DATUM_TYPES:
        return [f"{path}: unknown datum type {t!r}"]
    problems = _require_name(d, path) + _check_id_fields(d, path)
    if t in ("GeodeticReferenceFrame", "DynamicGeodeticReferenceFrame"):
        if "ellipsoid" not in d:
            problems.append(f"{path}: {t} missing ellipsoid")
        else:
            problems += _check_ellipsoid(d["ellipsoid"], f"{path}.ellipsoid")
        if "prime_meridian" in d:
            problems += _check_prime_meridian(
                d["prime_meridian"], f"{path}.prime_meridian"
            )
    if t.startswith("Dynamic") and "frame_reference_epoch" not in d:
        problems.append(f"{path}: {t} missing frame_reference_epoch")
    if t == "TemporalDatum" and not d.get("origin"):
        problems.append(f"{path}: TemporalDatum missing origin")
    return problems


def _check_datum_ensemble(d: Any, path: str) -> list[str]:
    if not isinstance(d, dict):
        return [f"{path}: not an object"]
    problems = _require_name(d, path) + _check_id_fields(d, path)
    members = d.get("members")
    if not isinstance(members, list) or not members:
        problems.append(f"{path}: needs a non-empty members list")
    else:
        for i, m in enumerate(members):
            if not isinstance(m, dict) or not m.get("name"):
                problems.append(f"{path}.members[{i}]: missing name")
            else:
                problems += _check_id_fields(m, f"{path}.members[{i}]")
    if "accuracy" not in d:
        problems.append(f"{path}: missing accuracy")
    if "ellipsoid" in d:
        problems += _check_ellipsoid(d["ellipsoid"], f"{path}.ellipsoid")
    return problems


def _check_ellipsoid(e: Any, path: str) -> list[str]:
    if not isinstance(e, dict):
        return [f"{path}: not an object"]
    problems = _require_name(e, path) + _check_id_fields(e, path)
    has_major = "semi_major_axis" in e
    has_shape = "semi_minor_axis" in e or "inverse_flattening" in e
    has_radius = "radius" in e
    if not ((has_major and has_shape) or has_radius):
        problems.append(
            f"{path}: needs semi_major_axis + (semi_minor_axis | "
            "inverse_flattening), or radius (sphere)"
        )
    for k in ("semi_major_axis", "semi_minor_axis", "radius"):
        if k in e:
            problems += _check_value_maybe_unit(e[k], f"{path}.{k}")
    return problems


def _check_prime_meridian(p: Any, path: str) -> list[str]:
    if not isinstance(p, dict):
        return [f"{path}: not an object"]
    problems = _require_name(p, path) + _check_id_fields(p, path)
    if "longitude" not in p:
        problems.append(f"{path}: missing longitude")
    else:
        problems += _check_value_maybe_unit(p["longitude"], f"{path}.longitude")
    return problems


def _check_value_maybe_unit(v: Any, path: str) -> list[str]:
    """float | ValueAndUnit (projjson.py:46-49)."""
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return []
    if isinstance(v, dict):
        problems = []
        if "value" not in v:
            problems.append(f"{path}: ValueAndUnit missing value")
        problems += _check_unit(v.get("unit"), f"{path}.unit")
        return problems
    return [f"{path}: not a number or ValueAndUnit"]


def _check_unit(u: Any, path: str) -> list[str]:
    if isinstance(u, str):
        return []
    if not isinstance(u, dict):
        return [f"{path}: missing unit"]
    problems = []
    if "name" not in u or "conversion_factor" not in u:
        problems.append(f"{path}: needs name+conversion_factor")
    if "type" in u and u["type"] not in _UNIT_TYPES:
        problems.append(f"{path}: unknown unit type {u['type']!r}")
    return problems + _check_id_fields(u, path)


def _check_id_fields(d: dict, path: str) -> list[str]:
    problems = []
    if d.get("id") is not None and d.get("ids") is not None:
        problems.append(f"{path}: cannot specify both 'id' and 'ids'")
    if isinstance(d.get("id"), dict):
        i = d["id"]
        if "authority" not in i or "code" not in i:
            problems.append(f"{path}.id: needs authority + code")
    elif d.get("id") is not None:
        problems.append(f"{path}.id: not an object")
    if isinstance(d.get("ids"), list):
        for j, i in enumerate(d["ids"]):
            if not isinstance(i, dict) or "authority" not in i or "code" not in i:
                problems.append(f"{path}.ids[{j}]: needs authority + code")
    return problems


def _check_cs(cs: Any, path: str) -> list[str]:
    if cs is None:
        return [f"{path}: missing"]
    if not isinstance(cs, dict):
        return [f"{path}: not an object"]
    problems = []
    if "subtype" in cs and cs["subtype"] not in _CS_SUBTYPES:
        problems.append(f"{path}: unknown subtype {cs['subtype']!r}")
    problems += _check_id_fields(cs, path)
    axes = cs.get("axis")
    if not isinstance(axes, list) or not axes:
        return problems + [f"{path}: missing axis list"]
    for i, ax in enumerate(axes):
        if not isinstance(ax, dict):
            problems.append(f"{path}.axis[{i}]: not an object")
            continue
        for key in ("name", "abbreviation", "direction"):
            if key not in ax:
                problems.append(f"{path}.axis[{i}]: missing {key}")
        if ax.get("direction") not in _AXIS_DIRECTIONS:
            problems.append(
                f"{path}.axis[{i}]: illegal direction {ax.get('direction')!r}"
            )
        problems += _check_unit(ax.get("unit"), f"{path}.axis[{i}].unit")
        if isinstance(ax.get("meridian"), dict) and "longitude" not in ax["meridian"]:
            problems.append(f"{path}.axis[{i}].meridian: missing longitude")
    return problems
