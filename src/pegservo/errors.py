"""Domain error taxonomy, and the one place the library touches the disk.

Every error the library raises on purpose derives from PegServoError so the
CLI can map any of them to exit code 1 and print the class name. Plain
programming errors (TypeError and friends) are not wrapped.

Every artifact is written by write_artifact (or write_artifacts, which also
makes the output directory) and read by read_artifact; an OSError from any
of them becomes IoError. Writes are atomic: the bytes go to a temporary
file next to the target, which then replaces it. Errors of a file's format
(bad JSON, a wrong header or size) belong to its reader. csv_text owns how a
value becomes a CSV field; bench writes its row files by column, to the same text.
"""

import contextlib
import os


class PegServoError(Exception):
    """Base class for all domain errors."""


class DegenerateView(PegServoError):
    """Camera looks along the insertion axis; it carries no in-plane information."""


class InsufficientViews(PegServoError):
    """Fewer than two error directions were supplied to the reconstruction."""


class BehindCamera(PegServoError):
    """Projected point has non-positive depth in the camera frame."""


class InvalidConfig(PegServoError):
    """A configuration value violates its documented invariant."""


class InvalidTolerance(InvalidConfig):
    """Search tolerance must be finite and strictly positive."""


class InvalidRadius(InvalidConfig):
    """Search radius must be finite and non-negative."""


class ConstraintViolation(PegServoError):
    """A TCP move left the insertion plane, or had a non-finite target."""


class ShapeMismatch(PegServoError):
    """Observation does not match the model input specification."""


class EmptyDataset(PegServoError):
    """Operation requires at least one sample."""


class LeakedInsertion(PegServoError):
    """Train and validation sets share an insertion id."""


class NonFiniteLoss(PegServoError):
    """No training step reached a finite validation loss (a NaN or inf in the data)."""


class NonFinitePrediction(PegServoError):
    """A deployed model predicted NaN or inf for a servo view."""


class TooFewInsertions(PegServoError):
    """Split needs strictly more insertion groups than train_insertions."""


class AllInsertionsFailed(PegServoError):
    """No collection insertion succeeded, so no data could be gathered."""


class ModelsNotDeployed(PegServoError):
    """Servo mode requested without a full set of per-camera models."""


class InsufficientData(PegServoError):
    """Not enough rows (or error spread) to fit the timing law."""


class IoError(PegServoError):
    """Filesystem failure while writing or reading an artifact."""


class CorruptArtifact(PegServoError):
    """A saved artifact is truncated, malformed or of another schema version."""


@contextlib.contextmanager
def _io_guard():
    try:
        yield
    except OSError as exc:
        raise IoError(str(exc)) from exc


def write_artifact(path, data) -> None:
    """Write one file from str (as UTF-8), bytes or a C-contiguous array.

    The parent directory must exist. path ends up holding either all of
    data or, if anything fails, its previous content; the temporary file is
    removed either way. A new file's mode follows the umask, as with open().
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    with _io_guard():
        try:
            with open(tmp, "wb") as fh:
                fh.write(data.encode("utf-8") if isinstance(data, str) else data)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise


def write_artifacts(out_dir, files: dict) -> list:
    """Make out_dir, then write each name -> data into it; the names written."""
    with _io_guard():
        os.makedirs(out_dir, exist_ok=True)
    for name, data in files.items():
        write_artifact(os.path.join(out_dir, name), data)
    return list(files)


def read_artifact(path, binary=False):
    """A file's text, or with binary=True its bytes as a writable bytearray.

    An undecodable text file raises CorruptArtifact.
    """
    try:
        with _io_guard():
            if not binary:
                with open(path, encoding="utf-8") as fh:
                    return fh.read()
            with open(path, "rb") as fh:
                # one buffer of the file's size, filled in place: no second copy
                data = bytearray(os.fstat(fh.fileno()).st_size)
                del data[fh.readinto(data):]
                return data
    except UnicodeDecodeError as exc:
        raise CorruptArtifact(f"{path}: {exc}") from exc


def _csv_field(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):  # np.float64 too, whose own repr is not a number
        return repr(float(v))
    return "" if v is None else str(v)


def csv_text(header, rows) -> str:
    """A CSV file's text: the header line, then one line per row.

    A bool is 0 or 1, a float (np.float64 included) the repr of its Python
    float, which reads back exactly, None empty, all else str.
    """
    lines = [",".join(header)]
    lines += [",".join([_csv_field(v) for v in row]) for row in rows]
    return "\n".join(lines) + "\n"
