//! Static arguments in the form the cache keys them by.

use std::fmt;
use std::sync::Arc;

use two4one::reader::{self, ReadError};
use two4one::{Datum, Limits};
use two4one_syntax::codec::{self, DecodeError};

/// The static arguments of a request as the cache keys them: the
/// canonical bytes of each datum in turn ([`codec`]), plus the data
/// themselves when the caller had them in hand. Two requests share a
/// cache entry exactly when their bytes are equal, which holds for equal
/// data and only for them: the symbol `12` and the integer `12`, which
/// print alike, encode apart.
///
/// Statics scanned from request text ([`Statics::scan`]) carry only their
/// bytes, so a warm hit builds no data at all. Work that needs the data
/// (a fill, a generic image, a promotion) decodes them inside its job, on
/// a big-stack thread.
#[derive(Debug, Clone)]
pub struct Statics {
    bytes: Arc<[u8]>,
    data: Option<Arc<[Datum]>>,
}

impl Statics {
    /// The statics `data`, encoded once; the data ride along, so a fill
    /// never decodes them.
    pub fn encode(data: &[Datum]) -> Statics {
        Statics {
            bytes: codec::encode_data(data).into(),
            data: Some(data.into()),
        }
    }

    /// Scans the data in `text` straight to their bytes, under the reader
    /// caps of `limits`, building none of them
    /// ([`reader::scan_all_with`]).
    ///
    /// # Errors
    ///
    /// The [`ReadError`] reading `text` would give.
    pub fn scan(text: &str, limits: &Limits) -> Result<Statics, ReadError> {
        Ok(Statics {
            bytes: reader::scan_all_with(text, limits)?.into(),
            data: None,
        })
    }

    /// The canonical bytes: the key's statics.
    pub(crate) fn bytes(&self) -> &Arc<[u8]> {
        &self.bytes
    }

    /// The data: the ones the statics were encoded from, or their bytes
    /// decoded. Statics made by [`Statics::encode`] or [`Statics::scan`]
    /// always decode.
    pub(crate) fn data(&self) -> Result<Arc<[Datum]>, DecodeError> {
        match &self.data {
            Some(data) => Ok(data.clone()),
            None => codec::decode_data(&self.bytes).map(Arc::from),
        }
    }
}

impl From<Vec<Datum>> for Statics {
    fn from(data: Vec<Datum>) -> Statics {
        Statics::encode(&data)
    }
}

impl fmt::Display for Statics {
    /// The data as the reader reads them back, separated by spaces.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let data = match self.data() {
            Ok(data) => data,
            Err(e) => return write!(f, "#<statics: {e}>"),
        };
        for (i, d) in data.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scanned_and_encoded_statics_agree() {
        let text = "(a \"b\" #\\c) 12 'q";
        let scanned = Statics::scan(text, &Limits::default()).expect("scan");
        let data = reader::read_all(text).expect("read");
        let encoded = Statics::encode(&data);
        assert_eq!(scanned.bytes(), encoded.bytes());
        assert_eq!(&*scanned.data().expect("decodes"), &data[..]);
        assert_eq!(scanned.to_string(), "(a \"b\" #\\c) 12 'q");
    }

    #[test]
    fn statics_that_print_alike_key_apart() {
        let sym = Statics::encode(&[Datum::sym("12")]);
        let int = Statics::encode(&[Datum::Int(12)]);
        assert_eq!(sym.to_string(), int.to_string());
        assert_ne!(sym.bytes(), int.bytes());
    }
}
