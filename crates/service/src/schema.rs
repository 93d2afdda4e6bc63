//! One field list per wire message, walked by both codecs.
//!
//! Every [`proto`](crate::proto) message is described once, by a
//! [`message!`] field list (or, for the request and response enums, one
//! [`kinds!`] table). Each entry names a field, its v1 JSON key and its
//! *kind*. Four backends walk the list: the v1 JSON writer and reader
//! (`proto.rs`) and the v2 binary writer and reader (`frame.rs`). The
//! field order of a list is the v1 key order and the v2 byte order.
//!
//! The kinds:
//!
//! | kind     | Rust type    | v1 JSON                         | v2 binary                      |
//! |----------|--------------|---------------------------------|--------------------------------|
//! | `val`    | [`Scalar`]   | value; absent keeps the default | fixed-width value              |
//! | `req`    | [`Scalar`]   | value; absent fails with a message | fixed-width value           |
//! | `opt`    | `Option<S>`  | value or `null`                 | presence byte, value           |
//! | `arr`    | `Vec<S>`     | array (required)                | u32 count, values              |
//! | `nested` | [`Message`]  | object; absent keeps defaults   | fields inline                  |
//! | `list`   | `Vec<M>`     | array of objects (required)     | u32 count, fields inline       |
//! | `ext`    | `Option<M>`  | object, omitted when `None`     | trailing, see [`Ext`]          |
//! | `flag`   | `bool`       | `true`, omitted when false      | trailing `1`, omitted when false |
//!
//! `ext` and `flag` are how the protocol grows: a message that leaves
//! them unset encodes byte-identically to the message before they
//! existed, in both formats, so old peers keep working.

use crate::frame::BinScalar;
use crate::proto::JsonScalar;

/// A field value both codecs can carry as one unit: an integer, float,
/// bool, string, a byte-coded enum, or a small fixed tuple.
pub(crate) trait Scalar: JsonScalar + BinScalar {}

impl<T: JsonScalar + BinScalar> Scalar for T {}

/// How an `ext` field sits at the end of a v2 payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ext {
    /// Opened by this marker byte. Several marker-led extensions may
    /// follow one another, in ascending marker order. An optional knob
    /// a client adds: a v1 reader treats an object it cannot read as
    /// absent.
    Marker(u8),
    /// Everything left in the payload. A section the reader asked for:
    /// a v1 reader refuses an object it cannot read.
    Rest,
}

/// A message with a field list.
pub(crate) trait Message: Sized {
    /// The value decoding starts from: every field a v1 document may
    /// omit holds its protocol default here.
    fn seed() -> Self;
    /// Visit every field, in wire order, for encoding.
    fn write<W: Writes>(&self, w: &mut W);
    /// Visit every field, in wire order, for decoding into `self`.
    fn read<R: Reads>(&mut self, r: &mut R) -> Result<(), R::Error>;
}

/// An encoding backend: one method per field kind.
pub(crate) trait Writes {
    fn val<T: Scalar>(&mut self, x: &T, key: &'static str);
    fn req<T: Scalar>(&mut self, x: &T, key: &'static str, _missing: &'static str) {
        self.val(x, key);
    }
    fn opt<T: Scalar>(&mut self, x: &Option<T>, key: &'static str);
    fn arr<T: Scalar>(&mut self, x: &[T], key: &'static str, missing: &'static str);
    fn nested<M: Message>(&mut self, x: &M, key: &'static str);
    fn list<M: Message>(&mut self, x: &[M], key: &'static str, missing: &'static str);
    fn ext<M: Message>(&mut self, x: &Option<M>, key: &'static str, ext: Ext);
    fn flag(&mut self, x: &bool, key: &'static str);
}

/// A decoding backend: one method per field kind, each filling the
/// field in place.
pub(crate) trait Reads {
    type Error;
    fn val<T: Scalar>(&mut self, x: &mut T, key: &'static str) -> Result<(), Self::Error>;
    fn req<T: Scalar>(
        &mut self,
        x: &mut T,
        key: &'static str,
        missing: &'static str,
    ) -> Result<(), Self::Error>;
    fn opt<T: Scalar>(&mut self, x: &mut Option<T>, key: &'static str) -> Result<(), Self::Error>;
    fn arr<T: Scalar>(
        &mut self,
        x: &mut Vec<T>,
        key: &'static str,
        missing: &'static str,
    ) -> Result<(), Self::Error>;
    fn nested<M: Message>(&mut self, x: &mut M, key: &'static str) -> Result<(), Self::Error>;
    fn list<M: Message>(
        &mut self,
        x: &mut Vec<M>,
        key: &'static str,
        missing: &'static str,
    ) -> Result<(), Self::Error>;
    fn ext<M: Message>(
        &mut self,
        x: &mut Option<M>,
        key: &'static str,
        ext: Ext,
    ) -> Result<(), Self::Error>;
    fn flag(&mut self, x: &mut bool, key: &'static str) -> Result<(), Self::Error>;
}

/// The enums whose variants are wire messages ([`Request`],
/// [`Response`]): each variant has a v1 `"kind"` label and a v2 tag.
///
/// [`Request`]: crate::proto::Request
/// [`Response`]: crate::proto::Response
pub(crate) trait Kinds: Sized {
    /// The v1 `"kind"` label of this variant.
    fn label(&self) -> &'static str;
    /// The v2 payload tag of this variant.
    fn tag(&self) -> u8;
    /// Visit the variant's fields for encoding.
    fn write_fields<W: Writes>(&self, w: &mut W);
    /// Decode the fields of the variant `pick(label, tag)` selects,
    /// returning its label with the result; `None` when it selects none.
    fn read_kind<R: Reads>(
        r: &mut R,
        pick: impl Fn(&str, u8) -> bool,
    ) -> Option<(&'static str, Result<Self, R::Error>)>;
}

/// Implement [`Message`] from a seed and a field list:
///
/// ```ignore
/// message! { CalibSpec = CalibSpec::default();
///     days: val("days"),
///     probes_per_day: val("probes"),
/// }
/// ```
macro_rules! message {
    ($ty:ty = $seed:expr; $($field:ident : $kind:ident($($arg:expr),*)),* $(,)?) => {
        impl $crate::schema::Message for $ty {
            fn seed() -> Self {
                $seed
            }
            fn write<W: $crate::schema::Writes>(&self, w: &mut W) {
                $( w.$kind(&self.$field, $($arg),*); )*
            }
            fn read<R: $crate::schema::Reads>(&mut self, r: &mut R) -> Result<(), R::Error> {
                $( r.$kind(&mut self.$field, $($arg),*)?; )*
                Ok(())
            }
        }
    };
}

/// Implement [`Kinds`] from the one label ↔ tag table of an enum.
/// Variants wrapping a [`Message`] are listed under `messages`; the
/// fields of struct-like variants are listed inline, like [`message!`]
/// fields (they decode from `Default` values).
macro_rules! kinds {
    ($enum:ident {
        messages: [$($mtag:literal $mlabel:literal $mvar:ident($mty:ty)),* $(,)?],
        inline: [$($itag:literal $ilabel:literal $ivar:ident {
            $($field:ident : $kind:ident($($arg:expr),*)),* $(,)?
        }),* $(,)?] $(,)?
    }) => {
        impl $crate::schema::Kinds for $enum {
            fn label(&self) -> &'static str {
                match self {
                    $( Self::$mvar(..) => $mlabel, )*
                    $( Self::$ivar { .. } => $ilabel, )*
                }
            }
            fn tag(&self) -> u8 {
                match self {
                    $( Self::$mvar(..) => $mtag, )*
                    $( Self::$ivar { .. } => $itag, )*
                }
            }
            fn write_fields<W: $crate::schema::Writes>(&self, w: &mut W) {
                match self {
                    $( Self::$mvar(m) => $crate::schema::Message::write(m, w), )*
                    $( Self::$ivar { $($field),* } => { $( w.$kind($field, $($arg),*); )* } )*
                }
            }
            fn read_kind<R: $crate::schema::Reads>(
                r: &mut R,
                pick: impl Fn(&str, u8) -> bool,
            ) -> Option<(&'static str, Result<Self, R::Error>)> {
                $(
                    if pick($mlabel, $mtag) {
                        let mut m = <$mty as $crate::schema::Message>::seed();
                        let read = $crate::schema::Message::read(&mut m, r);
                        return Some(($mlabel, read.map(|()| Self::$mvar(m))));
                    }
                )*
                $(
                    if pick($ilabel, $itag) {
                        $( let mut $field = Default::default(); )*
                        let read = (|| -> Result<(), R::Error> {
                            $( r.$kind(&mut $field, $($arg),*)?; )*
                            Ok(())
                        })();
                        return Some(($ilabel, read.map(|()| Self::$ivar { $($field),* })));
                    }
                )*
                None
            }
        }
    };
}

pub(crate) use {kinds, message};
