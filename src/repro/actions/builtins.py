"""The system built-in action library.

Four built-ins cover the paper's examples: ``photo()`` on cameras
(Figure 1), ``sendphoto()`` on phones (the Section 2.2 CREATE ACTION
example, provided here as a built-in so the quickstart works out of the
box), and ``beep()``/``blink()`` on sensor motes (the atomic-operation
examples of Section 3.1).

Each built-in bundles implementation + action profile + quantity
resolver. The profiles are written against the default cost tables of
:mod:`repro.profiles.defaults`, so estimated and simulated costs agree
— mirroring the paper's finding that its cost model was "reasonably
accurate" against the real devices.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Mapping, Tuple

from repro.errors import QueryError
from repro.devices.base import Device
from repro.devices.camera import PanTiltZoomCamera
from repro.cost.model import CostModel
from repro.actions.action import ActionDefinition, ActionParameter
from repro.actions.registry import ActionRegistry
from repro.profiles.action_profile import ActionProfile, OperationRef, par, seq

#: Default attachment size for sendphoto() MMS transfers, in kilobytes
#: (a medium AXIS 2130 JPEG).
DEFAULT_PHOTO_KB = 120.0


# ----------------------------------------------------------------------
# photo(target, directory [, size]) on cameras
# ----------------------------------------------------------------------

def _photo_impl(device: Device, args: Mapping[str, Any]
                ) -> Generator[Any, Any, Any]:
    if not isinstance(device, PanTiltZoomCamera):
        raise QueryError("photo() requires a PTZ camera device")
    size = args.get("size", "medium")
    return (yield from device.take_photo(args["target"], args["directory"],
                                         size))


def photo_profile() -> ActionProfile:
    """photo(): connect, move all head axes in parallel, capture, store."""
    return ActionProfile(
        action_name="photo",
        device_type="camera",
        composition=seq(
            OperationRef("connect"),
            par(OperationRef("pan", quantity="pan_degrees"),
                OperationRef("tilt", quantity="tilt_degrees"),
                OperationRef("zoom", quantity="zoom_units")),
            OperationRef("capture_medium"),
            OperationRef("store"),
        ),
        status_fields=["pan", "tilt", "zoom"],
        description="aim the head at a location and take a medium photo",
    )


def photo_resolver(
    device: Device, status: Mapping[str, float], args: Mapping[str, Any]
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Head-movement quantities from the device's (projected) status.

    This encodes the paper's key cost observation: "the starting head
    position of the camera affects the execution time (cost) of the
    action ... the execution of a photo() action moves the head of the
    camera to a new position, which in turn affects the cost of the
    subsequent photo() action."
    """
    if not isinstance(device, PanTiltZoomCamera):
        raise QueryError("photo() cost estimation requires a PTZ camera")
    pan, tilt, zoom = status["pan"], status["tilt"], status["zoom"]
    aimed = device.aim_for(args["target"])
    quantities = {
        "pan_degrees": abs(aimed.pan - pan),
        "tilt_degrees": abs(aimed.tilt - tilt),
        "zoom_units": abs(aimed.zoom - zoom),
    }
    post_status = {"pan": aimed.pan, "tilt": aimed.tilt, "zoom": aimed.zoom}
    return quantities, post_status


class PhotoBlockResolver:
    """Vectorized ``photo()`` quantity resolution (cost-model block API).

    ``prepare`` resolves every target's aimed head pose with the same
    scalar trig the per-call resolver uses (numpy's ``arctan2``/
    ``hypot`` can differ from :mod:`math` in the last ulp, which would
    break byte-identical schedules); ``resolve`` is then pure
    element-wise float64 arithmetic against one status, bit-equal to
    :func:`photo_resolver` per element.
    """

    def prepare(self, device: Device,
                args_list: list) -> Dict[str, Any]:
        import numpy
        if not isinstance(device, PanTiltZoomCamera):
            raise QueryError("photo() cost estimation requires a PTZ camera")
        pans = []
        tilts = []
        zooms = []
        for args in args_list:
            aimed = device.aim_for(args["target"])
            pans.append(aimed.pan)
            tilts.append(aimed.tilt)
            zooms.append(aimed.zoom)
        return {
            "pan": numpy.array(pans, dtype=numpy.float64),
            "tilt": numpy.array(tilts, dtype=numpy.float64),
            "zoom": numpy.array(zooms, dtype=numpy.float64),
        }

    def resolve(self, device: Device, prepared: Dict[str, Any],
                status: Mapping[str, float],
                indexes: Any = None) -> Dict[str, Any]:
        import numpy
        pan, tilt, zoom = prepared["pan"], prepared["tilt"], prepared["zoom"]
        if indexes is not None:
            pan, tilt, zoom = pan[indexes], tilt[indexes], zoom[indexes]
        return {
            "pan_degrees": numpy.abs(pan - status["pan"]),
            "tilt_degrees": numpy.abs(tilt - status["tilt"]),
            "zoom_units": numpy.abs(zoom - status["zoom"]),
        }

    def post_status(self, device: Device, prepared: Dict[str, Any],
                    index: int) -> Dict[str, float]:
        return {
            "pan": float(prepared["pan"][index]),
            "tilt": float(prepared["tilt"][index]),
            "zoom": float(prepared["zoom"][index]),
        }


# ----------------------------------------------------------------------
# sendphoto(phone_no, photo_pathname [, size_kb]) on phones
# ----------------------------------------------------------------------

def _sendphoto_impl(device: Device, args: Mapping[str, Any]
                    ) -> Generator[Any, Any, Any]:
    size_kb = args.get("size_kb", DEFAULT_PHOTO_KB)
    yield from device.execute("connect")
    outcome = yield from device.execute(
        "receive_mms",
        sender="aorta",
        body=f"photo for {args['phone_no']}",
        attachment=args["photo_pathname"],
        size_kb=size_kb,
    )
    return outcome.detail


def sendphoto_profile() -> ActionProfile:
    """sendphoto(): page the phone, then push the MMS payload."""
    return ActionProfile(
        action_name="sendphoto",
        device_type="phone",
        composition=seq(
            OperationRef("connect"),
            OperationRef("receive_mms", quantity="mms_kilobytes"),
        ),
        status_fields=["in_coverage"],
        description="send a photo to a phone with MMS support",
    )


def sendphoto_resolver(
    device: Device, status: Mapping[str, float], args: Mapping[str, Any]
) -> Tuple[Dict[str, float], Dict[str, float]]:
    quantities = {"mms_kilobytes": float(args.get("size_kb",
                                                  DEFAULT_PHOTO_KB))}
    return quantities, dict(status)


# ----------------------------------------------------------------------
# beep() / blink() on sensor motes
# ----------------------------------------------------------------------

def _mote_op_impl(operation: str):
    def impl(device: Device, args: Mapping[str, Any]
             ) -> Generator[Any, Any, Any]:
        yield from device.execute("connect")
        outcome = yield from device.execute(operation)
        return outcome.detail
    return impl


def _mote_profile(action_name: str, operation: str) -> ActionProfile:
    return ActionProfile(
        action_name=action_name,
        device_type="sensor",
        composition=seq(
            OperationRef("connect", quantity="hops"),
            OperationRef(operation),
        ),
        status_fields=["hop_depth", "battery"],
        description=f"{operation} once on a mote",
    )


def _mote_resolver(
    device: Device, status: Mapping[str, float], args: Mapping[str, Any]
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Connecting costs time per hop (Section 2.3's sensor example)."""
    return {"hops": float(status.get("hop_depth", 1.0))}, dict(status)


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------

def sendphoto_definition() -> ActionDefinition:
    """The reference *user-defined* action of Section 2.2.

    ``sendphoto()`` is the paper's CREATE ACTION example, so it is not
    part of the built-in library; this ready-made definition (and the
    exported ``sendphoto_profile``/``sendphoto_resolver``/impl pieces)
    let applications register it either directly or through the full
    ``install_action_code`` + ``CREATE ACTION`` flow.
    """
    return ActionDefinition(
        name="sendphoto",
        device_type="phone",
        parameters=(ActionParameter("phone_no", "String",
                                    device_attribute="number"),
                    ActionParameter("photo_pathname", "String")),
        implementation=_sendphoto_impl,
        profile=sendphoto_profile(),
        resolver=sendphoto_resolver,
        library_path="lib/users/sendphoto.dll",
        profile_path="profiles/users/sendphoto.xml",
    )


def builtin_definitions() -> list[ActionDefinition]:
    """Fresh definitions of all system built-in actions."""
    return [
        ActionDefinition(
            name="photo",
            device_type="camera",
            parameters=(ActionParameter("camera_ip", "String",
                                        device_attribute="ip"),
                        ActionParameter("target", "Location"),
                        ActionParameter("directory", "String")),
            implementation=_photo_impl,
            profile=photo_profile(),
            resolver=photo_resolver,
            builtin=True,
            block_resolver=PhotoBlockResolver(),
        ),
        ActionDefinition(
            name="beep",
            device_type="sensor",
            parameters=(ActionParameter("sensor_id", "String",
                                        device_attribute="id"),),
            implementation=_mote_op_impl("beep"),
            profile=_mote_profile("beep", "beep"),
            resolver=_mote_resolver,
            builtin=True,
        ),
        ActionDefinition(
            name="blink",
            device_type="sensor",
            parameters=(ActionParameter("sensor_id", "String",
                                        device_attribute="id"),),
            implementation=_mote_op_impl("blink"),
            profile=_mote_profile("blink", "blink"),
            resolver=_mote_resolver,
            builtin=True,
        ),
    ]


def install_builtin_actions(
    registry: ActionRegistry, cost_model: CostModel
) -> None:
    """Register the built-in library and its profiles.

    The cost model must already know the relevant device-type cost
    tables (see :func:`repro.profiles.defaults.register_builtin_types`).
    """
    for definition in builtin_definitions():
        registry.register(definition)
        cost_model.register_action(definition.profile, definition.resolver,
                                   block_resolver=definition.block_resolver)
